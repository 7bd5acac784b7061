"""The CoverMe driver: Algorithm 1 (branch coverage-based testing).

The driver is a thin façade over the search-engine subsystem; it owns the
three steps of the approach:

1. instrument the program under test (delegated to :mod:`repro.instrument`),
2. build the representing function ``FOO_R`` (Step 2, :mod:`repro.core.representing`),
3. hand the multi-start minimization of ``FOO_R`` (Step 3) to
   :class:`~repro.engine.core.SearchEngine`, which schedules seeded starting
   points, runs basin-hopping launches in the calling process, and
   reduces the results deterministically -- collecting every zero-valued
   minimum point as a test input and applying the infeasible-branch
   heuristic of Sect. 5.3 when a minimization bottoms out above zero.
   The inner loop's execution tier is ``CoverMeConfig.eval_profile``: the
   saturation mask is compiled per batch epoch into machine code
   (``"penalty-native"``, the default) or into the instrumented source
   (``"penalty-specialized"``, :mod:`repro.instrument.specialize`), while
   results stay bit-identical to the recording ``"full-trace"`` tier.

Step 3 is MCMC basin hopping
(:func:`~repro.optimize.basinhopping.basinhopping`) with the local minimizer
named by ``CoverMeConfig.local_minimizer``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.core.config import CoverMeConfig
from repro.core.report import CoverMeResult
from repro.core.representing import RepresentingFunction
from repro.core.saturation import SaturationTracker
from repro.engine.core import SearchEngine
from repro.instrument.program import InstrumentedProgram, instrument
from repro.instrument.signature import ProgramSignature

__all__ = ["CoverMe", "CoverMeResult", "cover"]


class CoverMe:
    """Branch coverage-based testing through unconstrained programming.

    Args:
        target: The program under test -- a Python callable over floating-point
            inputs, or an already-built :class:`InstrumentedProgram`.
        config: Algorithm parameters; defaults to :class:`CoverMeConfig`.
        extra_functions: Helper functions called by ``target`` that should be
            instrumented too (Sect. 5.3, "Handling Function Calls").
        signature: Optional explicit input-domain description.
    """

    def __init__(
        self,
        target: Callable | InstrumentedProgram,
        config: Optional[CoverMeConfig] = None,
        extra_functions: Iterable[Callable] = (),
        signature: Optional[ProgramSignature] = None,
    ):
        self.config = config if config is not None else CoverMeConfig()
        if isinstance(target, InstrumentedProgram):
            self.program = target
        else:
            self.program = instrument(target, extra_functions=extra_functions, signature=signature)
        self.tracker = SaturationTracker(self.program)
        # The Step-2 object, exposed for direct evaluation of FOO_R against
        # the driver's tracker.  The engine builds its own per-start
        # RepresentingFunction instances, so this one's evaluation counter
        # does not advance during run(); read ``result.evaluations`` instead.
        self.representing = RepresentingFunction(self.program, self.tracker)

    def run(self) -> CoverMeResult:
        """Execute Algorithm 1 and return the generated inputs plus coverage."""
        engine = SearchEngine(self.program, self.config, tracker=self.tracker)
        return engine.run()


def cover(
    target: Callable,
    config: Optional[CoverMeConfig] = None,
    extra_functions: Iterable[Callable] = (),
    signature: Optional[ProgramSignature] = None,
) -> CoverMeResult:
    """Convenience wrapper: instrument ``target``, run CoverMe, return the result."""
    return CoverMe(
        target, config=config, extra_functions=extra_functions, signature=signature
    ).run()
