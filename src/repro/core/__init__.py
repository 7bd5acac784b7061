"""CoverMe core: the paper's primary contribution.

Modules:

* :mod:`repro.core.branch_distance` -- Def. 4.1 branch distances.
* :mod:`repro.core.pen` -- Def. 4.2 penalty function over the saturation set.
* :mod:`repro.core.saturation` -- Def. 3.2 saturation tracking.
* :mod:`repro.core.representing` -- the representing function ``FOO_R``.
* :mod:`repro.core.coverme` -- Algorithm 1 driver.
* :mod:`repro.core.config` / :mod:`repro.core.report` -- configuration and
  result records.
"""

from repro._exports import lazy_exports

# Bound eagerly: ``branch_distance`` also names a submodule, which a lazy
# export would resolve to once that submodule is imported.
from repro.core.branch_distance import DEFAULT_EPSILON, branch_distance, negate_op

__getattr__ = lazy_exports(__name__, {
    "repro.core.config": ("CoverMeConfig",),
    "repro.core.coverme": ("CoverMe", "CoverMeResult"),
    "repro.core.pen": ("CoverMePenalty",),
    "repro.core.report": ("CoverageReport", "MinimizationTrace"),
    "repro.core.representing": ("RepresentingFunction",),
    "repro.core.saturation": ("SaturationTracker",),
})

__all__ = [
    "DEFAULT_EPSILON",
    "CoverMe",
    "CoverMeConfig",
    "CoverMePenalty",
    "CoverMeResult",
    "CoverageReport",
    "MinimizationTrace",
    "RepresentingFunction",
    "SaturationTracker",
    "branch_distance",
    "negate_op",
]
