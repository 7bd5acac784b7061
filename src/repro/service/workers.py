"""The persistent warm worker pool: dispatcher threads sharing one queue.

Each worker is a long-lived thread that loops taking the oldest job from
the admission queue and handing it to the service's job handler, so a job
waits only while every worker is busy.  Because workers persist across
jobs, everything cached at process level -- the instrumented-source cache,
the specialization cache, the native-kernel cache -- stays hot from one job
to the next; that is the whole point of a *warm* pool versus spawning per
job.

In ``process`` mode these threads are still the dispatchers; the handler
forwards execution to one persistent ``ProcessPoolExecutor`` owned by the
service, so the same warm-cache argument applies to its worker processes
(each process keeps its own caches, whichever dispatcher sent the job).
The service starts that pool from a dispatcher thread, so its processes
start from forkserver, or spawn, never fork
(:func:`repro.service.core.process_context`): each imports ``repro`` afresh
and loads its instrumented units, variants and kernels from the disk caches.
"""

from __future__ import annotations

import time
import threading
from typing import Callable


class WorkerPool:
    """``n_workers`` daemon threads draining an :class:`AdmissionQueue`.

    ``handler(job, worker_id)`` must never raise: job failures are folded
    into the job object by the service, and a handler exception would
    silently kill a worker thread.
    """

    def __init__(self, queue, handler: Callable, n_workers: int):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self._queue = queue
        self._handler = handler
        self._threads: list[threading.Thread] = []
        for index in range(n_workers):
            thread = threading.Thread(
                target=self._loop,
                args=(index,),
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    @property
    def n_workers(self) -> int:
        return len(self._threads)

    def _loop(self, worker_id: int) -> None:
        while True:
            job = self._queue.take()
            if job is None:  # queue closed: drain complete, retire
                return
            self._handler(job, worker_id)

    def join(self, timeout: float = 30.0) -> list[str]:
        """Wait up to ``timeout`` seconds *total* for all workers to retire.

        The deadline is shared across the pool (it used to be granted per
        thread, so N slow workers could stretch the wait to N x timeout),
        and workers still alive at expiry are returned by name instead of
        being silently abandoned -- the service surfaces them in its stats
        so a worker wedged on a slow job is observable, not just slow.
        """
        deadline = time.monotonic() + timeout
        unjoined: list[str] = []
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                unjoined.append(thread.name)
        return unjoined
