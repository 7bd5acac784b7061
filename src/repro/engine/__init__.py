"""The pluggable search-engine core (Step 3 of the paper, parallelized).

Layers:

* :mod:`repro.engine.scheduler` -- seeded normal start points
  (Algorithm 1, line 9).
* :mod:`repro.engine.worker` -- one basin-hopping start against a frozen
  saturation snapshot; shared by every execution mode.
* :mod:`repro.engine.pool` -- serial / process worker pools.
* :mod:`repro.engine.core` -- :class:`~repro.engine.core.SearchEngine`, the
  batched multi-start loop with deterministic in-order reduction.
"""

from repro.engine.scheduler import StartScheduler
from repro.engine.worker import StartParams, StartResult, StartTask, run_start
from repro.engine.pool import StartPool, resolve_worker_mode
from repro.engine.core import SearchEngine

__all__ = [
    "SearchEngine",
    "StartParams",
    "StartPool",
    "StartResult",
    "StartScheduler",
    "StartTask",
    "resolve_worker_mode",
    "run_start",
]
