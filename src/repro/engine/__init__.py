"""The search-engine core (Step 3 of the paper).

Layers:

* :mod:`repro.engine.scheduler` -- seeded normal start points
  (Algorithm 1, line 9).
* :mod:`repro.engine.worker` -- one basin-hopping start against a frozen
  saturation snapshot.
* :mod:`repro.engine.pool` -- the in-process start executor: a batch in,
  its results out in start order, each computed when pulled.
* :mod:`repro.engine.core` -- :class:`~repro.engine.core.SearchEngine`, the
  batched multi-start loop with deterministic in-order reduction.
"""

from repro.engine.scheduler import StartScheduler
from repro.engine.worker import StartParams, StartResult, StartTask, run_start
from repro.engine.pool import StartPool
from repro.engine.core import SearchEngine

__all__ = [
    "SearchEngine",
    "StartParams",
    "StartPool",
    "StartResult",
    "StartScheduler",
    "StartTask",
    "run_start",
]
