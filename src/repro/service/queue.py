"""Bounded admission queue.

Admission is where the service says *no*: the queue holds at most
``limit`` pending jobs, and a non-blocking ``put`` on a full queue raises
:class:`QueueFull` -- which the HTTP daemon translates into ``429 Too Many
Requests``.  Blocking producers (the pipeline, which would rather wait than
drop work) park on the same condition until a worker drains a slot.

The queue is one FIFO: any idle worker takes the oldest pending job, so no
worker idles while a job waits.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional


class QueueFull(RuntimeError):
    """Raised when admission is refused (bounded queue at capacity)."""

    def __init__(self, limit: int):
        super().__init__(f"admission queue full ({limit} pending jobs); retry later")
        self.limit = limit


class QueueClosed(RuntimeError):
    """Raised when putting into (or draining from) a closed queue."""


class AdmissionQueue:
    """A bounded FIFO with blocking and non-blocking admission."""

    def __init__(self, limit: Optional[int] = None):
        if limit is not None and limit < 1:
            raise ValueError("limit must be >= 1 (or None for unbounded)")
        self.limit = limit
        self._jobs: deque = deque()
        self._cond = threading.Condition()
        self._closed = False

    def _has_room(self) -> bool:
        return self.limit is None or len(self._jobs) < self.limit

    def put(self, job, block: bool = True, timeout: Optional[float] = None) -> None:
        """Admit ``job`` at the tail of the queue.

        With ``block=False`` a full queue raises :class:`QueueFull`
        immediately (the daemon's backpressure path).  With ``block=True``
        the caller waits for a slot, up to ``timeout`` seconds in total
        however often it is woken (:class:`QueueFull` on expiry).
        """
        with self._cond:
            if self._closed:
                raise QueueClosed("admission queue is closed")
            if not self._has_room():
                if not block:
                    raise QueueFull(self.limit)
                if not self._cond.wait_for(lambda: self._closed or self._has_room(), timeout):
                    raise QueueFull(self.limit)
                if self._closed:
                    raise QueueClosed("admission queue is closed")
            self._jobs.append(job)
            self._cond.notify_all()

    def take(self):
        """Pop the oldest pending job.

        Blocks until a job is available or the queue closes; returns
        ``None`` on close (worker shutdown signal).
        """
        with self._cond:
            self._cond.wait_for(lambda: self._closed or self._jobs)
            if not self._jobs:
                return None
            job = self._jobs.popleft()
            self._cond.notify_all()
            return job

    def close(self) -> list:
        """Close the queue, waking all waiters; returns the drained backlog."""
        with self._cond:
            self._closed = True
            drained = list(self._jobs)
            self._jobs.clear()
            self._cond.notify_all()
        return drained

    @property
    def pending(self) -> int:
        """Jobs waiting for a worker (a point-in-time snapshot for /stats)."""
        with self._cond:
            return len(self._jobs)
