"""The search engine: Algorithm 1's multi-start loop.

The engine executes ``n_start`` basin-hopping launches in fixed-size batches,
in the calling process.  All starts of a batch minimize against the same
frozen snapshot of the saturation state, so they are mutually independent;
the batch's results are *reduced in start order* into the shared
:class:`~repro.core.saturation.SaturationTracker`:

* a start whose minimum reaches zero contributes a test input and its
  covered branches (Algorithm 1, line 11),
* a start that bottoms out above zero feeds the infeasible-branch heuristic
  of Sect. 5.3,
* saturation and evaluation-budget stopping conditions are checked between
  reduction steps, exactly as the sequential driver checked them between
  starts.

Because batch boundaries, per-start seeds and the reduction order are all
functions of the configuration alone, a seeded run produces identical
covered/saturated branch sets and evaluation counts on every run.  The one
documented exception is ``time_budget``, which is inherently wall-clock
dependent: no start launches once the deadline passes, and the reduction
stops at the first start that was skipped.  Parallelism lives in the
service's case-level workers, one job per case.

The batch is also the *epoch* boundary of the compiled tiers: every start
of a batch evaluates against the batch's frozen saturation mask, and the
reduction between batches is the only place saturation bits flip.  Each
program has one mask-generic specialized variant and one native kernel;
a flipped bit rewrites their mask entries at the next call (the variant's
``__sp_sat__`` list, the kernel's mask words), never a compile, and an
unchanged mask rewrites nothing.  The reduction works on bit masks
(bit ``2 * c + outcome``) from the harvest's covered word to the tracker;
``BranchId`` sets are decoded only for the result and for a trace that
newly covered something.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.config import CoverMeConfig
from repro.core.report import CoverMeResult, MinimizationTrace
from repro.core.saturation import SaturationTracker
from repro.engine.pool import StartPool
from repro.engine.scheduler import StartScheduler
from repro.engine.worker import StartParams, StartResult, StartTask
from repro.instrument.program import InstrumentedProgram
from repro.instrument.runtime import BranchId, branch_bit

#: Starts per batch: the unit of snapshot freshness and of chunk priming.
DEFAULT_BATCH_SIZE = 8


class SearchEngine:
    """Owns the multi-start search over one instrumented program.

    Args:
        program: The program under test.
        config: Algorithm parameters.
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
        self.scheduler = StartScheduler(program.signature, root_seed=self.root_seed)

    # -- public API -----------------------------------------------------------------

    def run(self) -> CoverMeResult:
        """Execute the batched multi-start search and reduce into one result."""
        config = self.config
        start_time = time.perf_counter()
        deadline = time.time() + config.time_budget if config.time_budget is not None else None
        params = StartParams(
            local_minimizer=config.local_minimizer,
            n_iter=config.n_iter,
            root_seed=self.root_seed,
            deadline=deadline,
            eval_profile=config.eval_profile,
            native_threads=config.native_threads,
        )

        inputs: list[tuple[float, ...]] = []
        traces: list[MinimizationTrace] = []
        evaluations = 0
        starts_used = 0
        issued = 0
        batch_index = 0
        stop = False

        pool = StartPool(self.program)
        try:
            while not stop and issued < config.n_start:
                if self.tracker.all_saturated():
                    break
                if self._budget_exhausted(evaluations, start_time):
                    break
                count = min(DEFAULT_BATCH_SIZE, config.n_start - issued)
                tasks = self._schedule_batch(issued, count)
                issued += count
                batch_index += 1
                # Each result is computed only when pulled, so leaving the
                # loop early means the remaining starts never ran and cost
                # nothing.
                for result in pool.run_batch(params, tasks):
                    if result.skipped:
                        stop = True
                        break
                    evaluations += result.evaluations
                    starts_used += 1
                    traces.append(self._reduce(result, inputs))
                    if self.tracker.all_saturated() or self._budget_exhausted(
                        evaluations, start_time
                    ):
                        stop = True
                        break
                self._emit_progress(
                    batch_index - 1, issued, starts_used, evaluations, len(inputs), start_time
                )
        finally:
            pool.close()

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
                "covered": self.tracker.n_covered,
                "n_branches": self.program.n_branches,
                "all_saturated": self.tracker.all_saturated(),
                "elapsed": time.perf_counter() - start_time,
            }
        )

    def _schedule_batch(self, first_index: int, count: int) -> list[StartTask]:
        """Freeze the saturation snapshot and draw the batch's starting points."""
        covered = self.tracker.covered_mask
        infeasible = self.tracker.infeasible_mask
        points = self.scheduler.batch(first_index, count).tolist()
        return [
            StartTask(
                index=first_index + offset,
                x0=tuple(row),
                covered=covered,
                infeasible=infeasible,
            )
            for offset, row in enumerate(points)
        ]

    def _reduce(self, result: StartResult, inputs: list[tuple[float, ...]]) -> MinimizationTrace:
        """Fold one start's outcome into the shared tracker (Algorithm 1, lines 11-13)."""
        if result.value <= 0.0:  # a zero of FOO_R (exact by construction)
            newly = self.tracker.add_covered_mask(result.covered)
            inputs.append(result.x_star)
            return MinimizationTrace(
                start=result.x0,
                minimum_point=result.x_star,
                minimum_value=result.value,
                accepted=True,
                newly_covered_mask=newly,
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
        bit = branch_bit(result.last_conditional, not result.last_outcome)
        if (self.tracker.covered_mask | self.tracker.infeasible_mask) >> bit & 1:
            return None
        candidate = BranchId(result.last_conditional, not result.last_outcome)
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
