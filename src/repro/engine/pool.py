"""The start executor of the search engine.

A batch of independent :class:`~repro.engine.worker.StartTask`\\ s goes in;
their :class:`~repro.engine.worker.StartResult`\\ s come out in start order,
each computed in the calling thread only when the consumer pulls it.  The
engine's in-order merge can therefore stop a batch early (budget hit,
everything saturated) without paying for the remaining starts.

Parallelism lives one layer up, in the service's case-level workers, where
one worker start-up serves many runs.
"""

from __future__ import annotations

from typing import Iterator

from repro.instrument.program import InstrumentedProgram
from repro.engine.worker import (
    RunContext,
    StartParams,
    StartResult,
    StartTask,
    prime_chunk,
    run_start,
)


class StartPool:
    """Runs batches of starts in the calling thread, one start per pull.

    One pool serves one engine run: its :class:`RunContext` carries the
    batch's saturation snapshot and the fused search's C context from start
    to start, and :meth:`close` frees that context when the run ends."""

    def __init__(self, program: InstrumentedProgram):
        self.program = program
        self.context = RunContext(program)

    def run_batch(self, params: StartParams, tasks: list[StartTask]) -> Iterator[StartResult]:
        """Yield the batch's results in start order, lazily.

        Chunk priming (one batched kernel call over the batch's start
        vectors) happens here, inside the generator, so an abandoned
        iterator never pays for it.  A consumer that stops early wastes the
        primed tail values: one specialized execution per row.
        """
        primed = prime_chunk(self.program, params, tasks)
        for task in tasks:
            yield run_start(
                self.program,
                params,
                task,
                primed=None if primed is None else primed.get(task.index),
                context=self.context,
            )

    def close(self) -> None:
        """Free the run's fused-search context (idempotent)."""
        self.context.close()
