"""Worker-pool plumbing for the search engine.

Two execution modes share one semantic contract -- a batch of independent
:class:`~repro.engine.worker.StartTask`s in, their
:class:`~repro.engine.worker.StartResult`s out, reducible in start order:

* ``serial`` -- run in the calling thread.  Results are *streamed* so the
  engine's in-order merge can stop the batch early (budget hit, everything
  saturated) without paying for the remaining starts.
* ``process`` -- a fork/spawn pool; workers re-instrument from the program's
  picklable origin (cached per process).  It pays off only on heavy cases:
  worker start-up and re-instrumentation cost more than a light program's
  whole search.

``auto`` resolves to ``process`` when the origin pickles and a worker can
rebuild it, else to ``serial``.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, Sequence, TypeVar

from repro.instrument.program import InstrumentedProgram
from repro.engine.worker import (
    StartParams,
    StartResult,
    StartTask,
    origin_is_picklable,
    prime_chunk,
    run_chunk_in_worker,
    run_start,
)

T = TypeVar("T")

WORKER_MODES: tuple[str, ...] = ("auto", "process", "serial")


def process_context():
    """Pick a start method that is safe from this exact process.

    fork is the cheapest (workers inherit runtime-registered local
    minimizers), but forking a *multithreaded* parent can deadlock the
    children on locks the forking thread never held -- exactly the
    situation when ``compare_tools``' thread pool nests per-case process
    pools.  In that case fall back to forkserver (its server was started
    while single-threaded via fork+exec) or spawn.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context("spawn")


def _origin_importable_in_child(origin) -> bool:
    """Whether a spawn/forkserver child can rebuild the origin by import.

    Functions pickle by module+qualname *reference*, so ``pickle.dumps``
    succeeds in the parent even for ``__main__``-defined targets -- but a
    spawned child re-imports modules and (in a REPL or notebook) has no
    ``__main__`` source to resolve them from.  fork children share the
    parent's memory and are exempt from this check.
    """
    for func in (origin.target, *origin.extra_functions):
        if getattr(func, "__module__", "__main__") == "__main__":
            return False
    return True


def resolve_worker_mode(
    program: InstrumentedProgram, mode: str, n_workers: int, mp_context=None
) -> str:
    """Map the configured mode to what this program actually supports.

    ``mp_context`` is the multiprocessing context that will actually start
    the workers; pass the same object to :class:`StartPool` so the
    fork-safety decision made here cannot be invalidated by threads started
    between resolution and pool creation.
    """
    if mode not in WORKER_MODES:
        known = ", ".join(WORKER_MODES)
        raise ValueError(f"unknown worker mode {mode!r}; known: {known}")
    if n_workers <= 1 or mode == "serial":
        return "serial"
    if not origin_is_picklable(program.origin):
        if mode == "process":
            raise ValueError(
                f"program {program.name!r} has no picklable origin; "
                "process workers need a module-level target function"
            )
        return "serial"
    ctx = mp_context if mp_context is not None else process_context()
    if ctx.get_start_method() == "fork" or _origin_importable_in_child(program.origin):
        return "process"
    if mode == "process":
        raise ValueError(
            f"program {program.name!r} is defined in __main__, which "
            "spawn/forkserver workers cannot re-import; move the target "
            "to an importable module or use serial workers"
        )
    return "serial"


def chunk_evenly(items: Sequence[T], n_chunks: int) -> list[list[T]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, near-equal chunks."""
    if not items:
        return []
    n_chunks = max(1, min(n_chunks, len(items)))
    size, rest = divmod(len(items), n_chunks)
    chunks: list[list[T]] = []
    pos = 0
    for i in range(n_chunks):
        end = pos + size + (1 if i < rest else 0)
        chunks.append(list(items[pos:end]))
        pos = end
    return chunks


class StartPool:
    """Executes batches of starts in the resolved worker mode.

    The pool is created once per engine run and reused across batches so
    process workers amortize their instrumentation cost over the whole run.
    """

    def __init__(
        self, program: InstrumentedProgram, mode: str, n_workers: int, mp_context=None
    ):
        self.program = program
        self.mode = mode
        self.n_workers = max(1, n_workers)
        self._executor = None
        if mode == "process":
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=mp_context if mp_context is not None else process_context(),
            )

    @property
    def streams_lazily(self) -> bool:
        """Whether abandoning the ``run_batch`` iterator skips unstarted work.

        Serial mode launches each start only when the consumer pulls it, so
        an abandoned iterator means the remaining starts never executed and
        their evaluations must not be accounted.  Process mode dispatches
        the whole batch eagerly; every result's cost counts even after the
        reduction stops.
        """
        return self.mode == "serial"

    def run_batch(self, params: StartParams, tasks: list[StartTask]) -> Iterator[StartResult]:
        """Yield the batch's results in start order.

        Serial mode streams lazily (the consumer may abandon the iterator to
        skip unneeded starts); process mode dispatches contiguous chunks and
        streams each chunk's results as its future completes.
        """
        if self.mode == "serial":
            # Chunk priming (one batched kernel call over the batch's start
            # vectors) happens here, inside the generator, so an abandoned
            # iterator never pays for it.  A consumer that stops early wastes
            # the primed tail values: one specialized execution per row.
            primed = prime_chunk(self.program, params, tasks)
            for task in tasks:
                yield run_start(
                    self.program,
                    params,
                    task,
                    primed=None if primed is None else primed.get(task.index),
                )
            return
        # Process workers prime inside run_chunk_in_worker, against the
        # per-process program instance.
        futures = [
            self._executor.submit(run_chunk_in_worker, self.program.origin, params, chunk)
            for chunk in chunk_evenly(tasks, self.n_workers)
        ]
        # chunk_evenly hands out contiguous ascending index ranges and the
        # futures were submitted in chunk order, so yielding per future
        # preserves start order while letting the consumer begin reducing as
        # soon as the first chunk completes.
        for future in futures:
            yield from future.result()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "StartPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
