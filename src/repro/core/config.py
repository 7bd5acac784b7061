"""Configuration for the CoverMe driver (the inputs of Algorithm 1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.instrument.runtime import ExecutionProfile, check_execution_profile


@dataclass
class CoverMeConfig:
    """Parameters of Algorithm 1 plus implementation knobs.

    Attributes:
        n_start: Number of random starting points (``n_start`` in Algorithm 1).
            The paper's evaluation uses 500; the default here is smaller so a
            typical laptop run finishes quickly, and the experiments' "full"
            profile restores the paper's value.
        n_iter: Number of Monte-Carlo iterations per basin-hopping run
            (``n_iter`` in Algorithm 1; the paper uses 5).
        local_minimizer: Name of the local optimization algorithm ``LM``,
            a registered local minimizer: ``"powell"`` (the paper's
            setting and the one built in) or anything added via
            :func:`repro.optimize.local.register_local_minimizer`.
        seed: Seed for all pseudo-randomness (None for nondeterministic runs).
        mark_infeasible: Enable the infeasible-branch heuristic of Sect. 5.3.
        max_evaluations: Optional cap on representing-function evaluations.
        time_budget: Optional wall-clock cap in seconds.
        eval_profile: Execution profile of the optimizer inner loop --
            ``"penalty-native"`` (the default, the machine-code tier: the
            specialized lowering is emitted as C, compiled with the system
            ``cc`` and called through ctypes, and each local search runs in
            one C call; degrades to ``penalty-specialized`` with a one-time
            warning when no compiler is present),
            ``"penalty-specialized"`` (the compile-time tier: the program
            is re-generated once with the penalty inlined at every
            conditional, which reads the saturation mask at run time, and
            compiled to Python bytecode; the engine evaluates the ``x0``
            vectors of each chunk of two or more starts in one batched
            call, a per-row loop over the compiled variant) or
            ``"full-trace"`` (the recording runtime, the reference).  All
            profiles compute bit-identical representing-function values and
            produce identical seeded results.  Every start serves repeated
            evaluations at bit-identical inputs from a per-start memo, and
            accepted minima are re-executed to harvest their branches (on
            the allocation-free fast runtime under the compiled profiles),
            so the reduction sees the same branch sets regardless of this
            setting.
        native_threads: Native-tier batch threads.  Under the
            ``penalty-native`` profile,
            :meth:`~repro.core.representing.RepresentingFunction.evaluate_batch`
            runs the emitted ``sp_batch_mt`` entry with this many C threads
            (private covered-bit partials merged in fixed thread-index
            order, so ``r`` and the covered set are bit-identical for any
            value).  1 (the default) keeps the serial row loop.  The engine
            itself issues no native batches (one proposal per hop, native
            chunks are not primed).  Result-neutral, like ``eval_profile``,
            and therefore excluded from store fingerprints.
        progress: Optional observer called by the engine after each batch
            reduction with a dict of running counters (batch index, starts
            issued/used, evaluations, covered/saturated branch counts).  It
            is strictly an observer -- it must not mutate engine state, and
            it cannot change results (the service layer uses it to stream
            job progress to daemon clients); it is excluded from store
            fingerprints for the same reason.  The callback runs in the
            thread that runs the search and should return quickly.
    """

    n_start: int = 100
    n_iter: int = 5
    local_minimizer: str = "powell"
    seed: Optional[int] = None
    mark_infeasible: bool = True
    max_evaluations: Optional[int] = None
    time_budget: Optional[float] = None
    eval_profile: str = ExecutionProfile.PENALTY_NATIVE.value
    native_threads: int = 1
    progress: Optional[Callable[[dict], None]] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Imported lazily: the optimizer lives above repro.core in the layer
        # diagram, so a module-level import would be cyclic.
        from repro.optimize.local import get_local_minimizer

        if self.n_start < 1:
            raise ValueError("n_start must be >= 1")
        if self.n_iter < 0:
            raise ValueError("n_iter must be >= 0")
        if not isinstance(self.local_minimizer, str) or not self.local_minimizer:
            raise ValueError("local_minimizer must be a non-empty string")
        get_local_minimizer(self.local_minimizer)  # raises ValueError on unknown names
        check_execution_profile(self.eval_profile)
        if self.native_threads < 1:
            raise ValueError("native_threads must be >= 1")
        if self.progress is not None and not callable(self.progress):
            raise ValueError("progress must be a callable (or None)")

    @classmethod
    def paper(cls, **overrides) -> "CoverMeConfig":
        """The exact parameter settings of the paper's evaluation (Sect. 6.1)."""
        defaults = dict(n_start=500, n_iter=5, local_minimizer="powell")
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def smoke(cls, **overrides) -> "CoverMeConfig":
        """A fast profile for unit tests and CI."""
        defaults = dict(n_start=30, n_iter=3, local_minimizer="powell", seed=0)
        defaults.update(overrides)
        return cls(**defaults)
