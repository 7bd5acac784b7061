"""Reproduction of "Achieving High Coverage for Floating-point Code via
Unconstrained Programming" (Fu & Su, PLDI 2017).

The package provides:

* :mod:`repro.core` -- the CoverMe algorithm: branch distances, the ``pen``
  penalty, the representing function ``FOO_R`` and the Algorithm 1 driver.
* :mod:`repro.instrument` -- a source-level instrumentation pass for Python
  functions (the reproduction's analogue of the paper's LLVM pass).
* :mod:`repro.engine` -- the search-engine subsystem: seeded start-point
  scheduling and the batched multi-start loop with deterministic
  reduction, run in the calling process.
* :mod:`repro.optimize` -- unconstrained programming (Step 3): MCMC
  basin-hopping with Powell's method as the local minimizer.
* :mod:`repro.coverage` -- Gcov-like branch and line coverage measurement.
* :mod:`repro.fdlibm` -- a Python port of the Fdlibm 5.3 benchmark functions.
* :mod:`repro.baselines` -- the compared tools: random testing, an AFL-style
  greybox fuzzer, and an Austin-style search-based tester.
* :mod:`repro.experiments` -- harnesses regenerating every table and figure
  of the paper's evaluation section.

Quickstart::

    from repro import CoverMe, CoverMeConfig

    def foo(x, y):
        if x * x + y * y <= 1.0:
            if x > 0.5:
                return 1
            return 2
        return 3

    result = CoverMe(foo, CoverMeConfig(n_start=50, seed=0)).run()
    print(result.branch_coverage, result.inputs)
"""

from repro._exports import lazy_exports

# Exports resolve on first use, so importing one submodule loads no other.
# ``instrument`` is the subpackage: ``repro.instrument.instrument`` is the
# function.
__getattr__ = lazy_exports(__name__, {
    "repro.core.config": ("CoverMeConfig",),
    "repro.core.coverme": ("CoverMe", "CoverMeResult"),
    "repro.core.branch_distance": ("branch_distance",),
    "repro.core.representing": ("RepresentingFunction",),
    "repro.core.saturation": ("SaturationTracker",),
    "repro.engine": ("SearchEngine", "StartScheduler"),
    "repro.instrument.program": ("InstrumentedProgram",),
    "repro.instrument.runtime": ("BranchId", "ExecutionProfile"),
})

__version__ = "1.2.0"

__all__ = [
    "CoverMe",
    "CoverMeConfig",
    "CoverMeResult",
    "RepresentingFunction",
    "SaturationTracker",
    "SearchEngine",
    "StartScheduler",
    "InstrumentedProgram",
    "BranchId",
    "ExecutionProfile",
    "branch_distance",
    "__version__",
]
