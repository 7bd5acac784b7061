"""The search engine: Algorithm 1's multi-start loop as a parallel subsystem.

The engine executes ``n_start`` basin-hopping launches in fixed-size batches.
All starts of a batch minimize against the same frozen snapshot of the
saturation state, so they are mutually independent and can run on any number
of workers; the batch's results are then *reduced in start order* into the
shared :class:`~repro.core.saturation.SaturationTracker`:

* a start whose minimum reaches zero contributes a test input and its
  covered branches (Algorithm 1, line 11),
* a start that bottoms out above zero feeds the infeasible-branch heuristic
  of Sect. 5.3,
* saturation and evaluation-budget stopping conditions are checked between
  reduction steps, exactly as the sequential driver checked them between
  starts.

Because batch boundaries, per-start seeds and the reduction order are all
functions of the configuration alone, a seeded run produces identical
covered/saturated branch sets for any ``n_workers`` and any worker mode.
The one documented exception is ``time_budget``, which is inherently
wall-clock dependent: workers stop launching new starts once the deadline
passes, and the reduction stops at the first start that was skipped.

The batch is also the specialization *epoch* boundary: under the
``penalty-specialized`` evaluation profile every start of a batch minimizes
against a compiled variant of the program whose probe sites have the batch's
frozen saturation mask resolved at compile time
(:mod:`repro.instrument.specialize`).  The reduction between batches is the
only place saturation bits flip, so re-specialization happens at most once
per program per new mask -- and is a cache hit whenever the mask did not
actually change, which the throughput benchmark asserts as "zero recompiles
while the mask is unchanged".
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.config import CoverMeConfig
from repro.core.report import CoverMeResult, MinimizationTrace
from repro.core.saturation import SaturationTracker
from repro.engine.pool import StartPool, process_context, resolve_worker_mode
from repro.engine.scheduler import StartScheduler
from repro.engine.worker import StartParams, StartResult, StartTask
from repro.instrument.program import InstrumentedProgram
from repro.instrument.runtime import BranchId


class SearchEngine:
    """Owns the multi-start search over one instrumented program.

    Args:
        program: The program under test.
        config: Algorithm parameters (including ``n_workers``,
            ``start_strategy`` and ``batch_size``).
        tracker: The shared saturation tracker to reduce into; a fresh one is
            created when omitted.  Passing the driver's tracker lets the
            :class:`~repro.core.coverme.CoverMe` façade keep exposing it.
    """

    def __init__(
        self,
        program: InstrumentedProgram,
        config: Optional[CoverMeConfig] = None,
        tracker: Optional[SaturationTracker] = None,
    ):
        self.program = program
        self.config = config if config is not None else CoverMeConfig()
        self.tracker = tracker if tracker is not None else SaturationTracker(program)
        self.root_seed = (
            int(self.config.seed)
            if self.config.seed is not None
            else int(np.random.default_rng().integers(2**31 - 1))
        )
        self.scheduler = StartScheduler(
            program.signature,
            strategy=self.config.start_strategy,
            root_seed=self.root_seed,
            start_scale=self.config.start_scale,
        )
        # Pin the multiprocessing context now so the fork-safety decision in
        # resolve_worker_mode stays valid for the pool that run() creates,
        # even if other threads start in between.
        self.mp_context = process_context()
        self.resolved_mode = resolve_worker_mode(
            program, self.config.worker_mode, self.config.n_workers, mp_context=self.mp_context
        )

    # -- public API -----------------------------------------------------------------

    def run(self) -> CoverMeResult:
        """Execute the batched multi-start search and reduce into one result."""
        config = self.config
        batch_size = config.effective_batch_size()
        start_time = time.perf_counter()
        deadline = time.time() + config.time_budget if config.time_budget is not None else None
        params = StartParams(
            backend=config.backend,
            local_minimizer=config.local_minimizer,
            n_iter=config.n_iter,
            step_size=config.step_size,
            temperature=config.temperature,
            local_max_iterations=config.local_max_iterations,
            zero_tolerance=config.zero_tolerance,
            epsilon=config.epsilon,
            root_seed=self.root_seed,
            deadline=deadline,
            eval_profile=config.eval_profile,
            memoize=config.memoize,
            native_threads=config.native_threads,
        )

        inputs: list[tuple[float, ...]] = []
        traces: list[MinimizationTrace] = []
        evaluations = 0
        starts_used = 0
        issued = 0
        batch_index = 0
        stop = False

        with self._make_pool() as pool:
            lazy = bool(getattr(pool, "streams_lazily", False))
            while not stop and issued < config.n_start:
                if self.tracker.all_saturated():
                    break
                if self._budget_exhausted(evaluations, start_time):
                    break
                count = min(batch_size, config.n_start - issued)
                tasks = self._schedule_batch(batch_index, issued, count)
                issued += count
                batch_index += 1
                for result in pool.run_batch(params, tasks):
                    if result.skipped:
                        stop = True
                        if lazy:
                            break
                        continue
                    # Every non-skipped result really executed, so its cost
                    # counts even once the reduction has stopped -- pooled
                    # modes compute the whole batch up front, and a worker
                    # may have finished its chunk before another hit the
                    # deadline.  Lazily streaming pools never hand over
                    # results the consumer did not pull, so abandoning the
                    # iterator (below) correctly accounts for nothing.
                    evaluations += result.evaluations
                    if stop:
                        continue
                    starts_used += 1
                    traces.append(self._reduce(result, inputs))
                    if self.tracker.all_saturated() or self._budget_exhausted(
                        evaluations, start_time
                    ):
                        stop = True
                        if lazy:
                            # Abandon the lazy iterator: the remaining
                            # starts were never launched, so there is
                            # nothing to account for.
                            break
                self._emit_progress(
                    batch_index - 1, issued, starts_used, evaluations, len(inputs), start_time
                )

        wall_time = time.perf_counter() - start_time
        return CoverMeResult(
            program=self.program.name,
            inputs=inputs,
            n_branches=self.program.n_branches,
            covered=frozenset(self.tracker.covered & self.program.all_branches),
            saturated=self.tracker.saturated,
            infeasible=frozenset(self.tracker.infeasible),
            evaluations=evaluations,
            wall_time=wall_time,
            n_starts_used=starts_used,
            traces=traces,
        )

    # -- internals --------------------------------------------------------------------

    def _emit_progress(
        self,
        batch_index: int,
        issued: int,
        starts_used: int,
        evaluations: int,
        n_inputs: int,
        start_time: float,
    ) -> None:
        """Call the configured progress observer after one batch reduction.

        The observer sees running counters only -- it cannot influence the
        search, so seeded results stay bit-identical with or without it.
        """
        if self.config.progress is None:
            return
        self.config.progress(
            {
                "event": "batch",
                "batch": batch_index,
                "starts_issued": issued,
                "starts_total": self.config.n_start,
                "starts_used": starts_used,
                "evaluations": evaluations,
                "inputs": n_inputs,
                "covered": len(self.tracker.covered & self.program.all_branches),
                "n_branches": self.program.n_branches,
                "all_saturated": self.tracker.all_saturated(),
                "elapsed": time.perf_counter() - start_time,
            }
        )

    def _make_pool(self):
        """Build the execution pool for this run.

        ``config.pool_factory`` is the seam the distributed coordinator uses
        to substitute a lease-backed pool; when unset the engine creates the
        ordinary in-process :class:`StartPool`.  The factory receives the
        engine so it can reach the scheduler and batch plan (for speculative
        lease construction) and must return a context manager whose value
        honors the ``run_batch``/``streams_lazily`` contract.
        """
        if self.config.pool_factory is not None:
            return self.config.pool_factory(self)
        return StartPool(
            self.program, self.resolved_mode, self.config.n_workers, mp_context=self.mp_context
        )

    def batch_plan(self, batch_index: int) -> tuple[int, int]:
        """``(first_index, count)`` of the given batch under this config.

        Batch boundaries are a pure function of ``n_start`` and the batch
        size -- batch ``k`` always starts at ``k * batch_size`` -- so remote
        coordinators can enumerate future batches without running the loop.
        """
        size = self.config.effective_batch_size()
        first = batch_index * size
        return first, max(0, min(size, self.config.n_start - first))

    def tasks_for_batch(
        self,
        batch_index: int,
        covered: frozenset[BranchId],
        infeasible: frozenset[BranchId],
    ) -> list[StartTask]:
        """Draw the batch's seeded starting points under an explicit snapshot.

        The scheduler is a pure function of ``(batch_index, first_index,
        count)``, so this can be called ahead of the main loop -- the
        distributed lease pool uses it to issue *speculative* leases for
        future batches under a predicted saturation snapshot, validating the
        prediction when the engine actually reaches that batch.
        """
        first_index, count = self.batch_plan(batch_index)
        points = self.scheduler.batch(batch_index, first_index, count)
        return [
            StartTask(
                index=first_index + offset,
                x0=tuple(float(v) for v in points[offset]),
                covered=covered,
                infeasible=infeasible,
            )
            for offset in range(count)
        ]

    def _schedule_batch(self, batch_index: int, first_index: int, count: int) -> list[StartTask]:
        """Freeze the saturation snapshot and draw the batch's starting points."""
        del first_index, count  # implied by the batch plan
        return self.tasks_for_batch(
            batch_index,
            frozenset(self.tracker.covered),
            frozenset(self.tracker.infeasible),
        )

    def _reduce(self, result: StartResult, inputs: list[tuple[float, ...]]) -> MinimizationTrace:
        """Fold one start's outcome into the shared tracker (Algorithm 1, lines 11-13)."""
        if result.value <= self.config.zero_tolerance:
            newly = self.tracker.add_covered(set(result.covered))
            inputs.append(result.x_star)
            return MinimizationTrace(
                start=result.x0,
                minimum_point=result.x_star,
                minimum_value=result.value,
                accepted=True,
                newly_covered=frozenset(newly),
                evaluations=result.evaluations,
            )
        marked = self._apply_infeasible_heuristic(result)
        return MinimizationTrace(
            start=result.x0,
            minimum_point=result.x_star,
            minimum_value=result.value,
            accepted=False,
            marked_infeasible=marked,
            evaluations=result.evaluations,
        )

    def _apply_infeasible_heuristic(self, result: StartResult) -> Optional[BranchId]:
        """Sect. 5.3: deem the unvisited branch of the last conditional infeasible."""
        if not self.config.mark_infeasible:
            return None
        if result.last_conditional is None or result.last_outcome is None:
            return None
        candidate = BranchId(result.last_conditional, not result.last_outcome)
        if candidate in self.tracker.covered or candidate in self.tracker.infeasible:
            return None
        self.tracker.mark_infeasible(candidate)
        return candidate

    def _budget_exhausted(self, evaluations: int, start_time: float) -> bool:
        config = self.config
        if config.max_evaluations is not None and evaluations >= config.max_evaluations:
            return True
        if config.time_budget is not None:
            if time.perf_counter() - start_time >= config.time_budget:
                return True
        return False
