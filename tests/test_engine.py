"""Tests for the search-engine subsystem: scheduler, starts, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.random_testing import RandomTester
from repro.core.config import CoverMeConfig
from repro.core.coverme import CoverMe, cover
from repro.core.representing import RepresentingFunction
from repro.core.saturation import SaturationTracker
from repro.engine.core import SearchEngine
from repro.engine import scheduler as scheduler_module
from repro.engine.scheduler import _STREAM_NORMAL, START_SCALE, StartScheduler
from repro.engine import worker as worker_module
from repro.engine.worker import StartParams, StartTask, run_start
from repro.experiments.runner import Profile, compare_tools, coverme_tool
from repro.instrument.native.local_min import native_objective
from repro.instrument.program import instrument
from repro.instrument.runtime import BranchId, branch_mask
from repro.instrument.signature import ProgramSignature
from repro.optimize.basinhopping import basinhopping
from repro.optimize.memo import BitPatternMemo
from tests import sample_programs as sp


def run_sets(target, **overrides):
    config = CoverMeConfig(n_start=16, n_iter=3, seed=42, **overrides)
    result = cover(target, config)
    return result.covered, result.saturated, result.inputs


class TestSeededDeterminism:
    """Same seed => identical results; another seed => other starts."""

    def test_seeded_starts_are_deterministic_and_seed_dependent(self):
        first = run_sets(sp.nested_branches)
        assert run_sets(sp.nested_branches) == first
        other = cover(sp.nested_branches, CoverMeConfig(n_start=16, n_iter=3, seed=43))
        assert tuple(other.inputs[:1]) != tuple(first[2][:1])


def basinhopping_start(program, params: StartParams, task: StartTask) -> tuple:
    """``task`` run as one basin-hopping call from ``x0``: an eagerly built
    generator, a callback that stops at a zero of ``FOO_R`` and a harvest
    through the representing function.  Returns what a start reports:
    ``x*``, its value, covered word, last conditional and outcome, and
    ``evaluations``."""
    tracker = SaturationTracker.from_masks(program, task.covered, task.infeasible)
    representing = RepresentingFunction(program, tracker, profile=params.eval_profile)
    fused = native_objective(representing)
    objective = fused if fused is not None else BitPatternMemo(representing, arity=program.arity)
    try:
        result = basinhopping(
            objective, task.x0, n_iter=params.n_iter, local_minimizer=params.local_minimizer,
            rng=np.random.default_rng([params.root_seed, worker_module._STREAM_WORKER, task.index]),
            callback=lambda x, f, accepted: f <= 0.0,
            local_options={"max_iterations": worker_module.LOCAL_MAX_ITERATIONS},
        )
        if fused is not None:
            representing.evaluations += fused.misses
    finally:
        if fused is not None:
            fused.close()
    x_star = result.x.tolist()
    value, coverage = representing.evaluate_with_coverage(x_star)
    return (tuple(x_star), float(value), coverage.covered_mask(), coverage.last_conditional,
            coverage.last_outcome, representing.evaluations)


def start_outcome(result) -> tuple:
    """What :func:`basinhopping_start` returns, read from a ``StartResult``."""
    return (result.x_star, result.value, result.covered, result.last_conditional,
            result.last_outcome, result.evaluations)


class TestLazyStartGenerator:
    """A start builds its random generator only when it hops."""

    _PARAMS = StartParams(local_minimizer="powell", n_iter=3, root_seed=5,
                          eval_profile="penalty-specialized")

    @pytest.fixture
    def built(self, monkeypatch):
        seeds = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            seeds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        return seeds

    def test_start_whose_first_search_finds_a_zero_builds_no_generator(self, built):
        program = instrument(sp.single_branch)
        task = StartTask(index=0, x0=(0.5,), covered=0, infeasible=0)
        result = run_start(program, self._PARAMS, task)
        assert result.value == 0.0
        assert built == []

    def test_drawing_start_matches_an_eager_generator(self, built):
        """A start that hops draws from one generator with the eager seed,
        so its trajectory is bit-identical to one basin-hopping call with
        an eagerly built generator."""
        program = instrument(sp.infeasible_inner)
        covered = frozenset({BranchId(0, True), BranchId(0, False), BranchId(1, False)})
        task = StartTask(index=7, x0=(3.0,), covered=branch_mask(covered), infeasible=0)
        hopping = run_start(program, self._PARAMS, task)
        assert built == [([5, worker_module._STREAM_WORKER, 7],)]
        assert hopping.value > 0.0
        assert start_outcome(hopping) == basinhopping_start(program, self._PARAMS, task)


class TestStartScheduler:
    signature = ProgramSignature(name="s", arity=3, low=(-2.0, 0.0, 5.0), high=(2.0, 1.0, 9.0))

    def test_batch_shapes(self):
        points = StartScheduler(self.signature, root_seed=1).batch(0, 6)
        assert points.shape == (6, 3)
        assert np.all(np.isfinite(points))

    def test_draws_normal_points_from_per_point_streams(self):
        points = StartScheduler(self.signature, root_seed=1).batch(4, 2)
        for offset in range(2):
            rng = np.random.default_rng([1, _STREAM_NORMAL, 4 + offset])
            expected = rng.normal(scale=START_SCALE, size=3)
            assert points[offset].tobytes() == expected.tobytes()

    def test_per_point_strategies_independent_of_batching(self):
        scheduler = StartScheduler(self.signature, root_seed=3)
        whole = scheduler.batch(0, 8)
        left = scheduler.batch(0, 5)
        right = scheduler.batch(5, 3)
        assert np.array_equal(np.vstack([left, right]), whole)

    def test_seed_changes_points(self):
        a = StartScheduler(self.signature, root_seed=1).batch(0, 4)
        b = StartScheduler(self.signature, root_seed=2).batch(0, 4)
        assert not np.array_equal(a, b)


def _fresh_draw(root_seed: int, index: int, arity: int) -> np.ndarray:
    rng = np.random.default_rng([root_seed, _STREAM_NORMAL, index])
    return rng.normal(scale=START_SCALE, size=arity)


def _signature(arity: int) -> ProgramSignature:
    return ProgramSignature(name="s", arity=arity, low=(-1.0,) * arity, high=(1.0,) * arity)


class TestStartDrawMemo:
    """A process draws each start point once, bit-identical to a fresh draw."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        scheduler_module._draw.cache_clear()

    def test_cold_and_warm_draws_match_a_fresh_generator(self):
        scheduler = StartScheduler(_signature(3), root_seed=11)
        cold = scheduler.batch(2, 5)
        assert scheduler_module._draw.cache_info().misses == 5
        warm = scheduler.batch(2, 5)
        assert scheduler_module._draw.cache_info().hits == 5
        for points in (cold, warm):
            assert points.shape == (5, 3)
            for offset in range(5):
                assert points[offset].tobytes() == _fresh_draw(11, 2 + offset, 3).tobytes()

    def test_each_arity_of_one_seed_is_its_own_draw(self):
        one = StartScheduler(_signature(1), root_seed=4).batch(0, 3)
        two = StartScheduler(_signature(2), root_seed=4).batch(0, 3)
        assert one.shape == (3, 1) and two.shape == (3, 2)
        for offset in range(3):
            assert one[offset].tobytes() == _fresh_draw(4, offset, 1).tobytes()
            assert two[offset].tobytes() == _fresh_draw(4, offset, 2).tobytes()

    def test_memo_filled_past_its_bound_stays_correct(self):
        bound = scheduler_module._draw.cache_info().maxsize
        scheduler = StartScheduler(_signature(1), root_seed=9)
        first = scheduler.batch(0, 4)
        scheduler.batch(4, bound)  # evicts the first rows
        assert scheduler_module._draw.cache_info().currsize == bound
        again = scheduler.batch(0, 4)
        expected = np.concatenate([_fresh_draw(9, index, 1) for index in range(4)])
        assert again.tobytes() == first.tobytes() == expected.tobytes()

    def test_mutating_a_batch_leaves_later_draws_alone(self):
        scheduler = StartScheduler(_signature(2), root_seed=6)
        points = scheduler.batch(0, 3)
        expected = points.copy()
        points[:] = 0.0
        assert scheduler.batch(0, 3).tobytes() == expected.tobytes()

    def test_case_runs_alike_first_or_after_another_case(self):
        """A seeded case's inputs, coverage and evaluations do not depend on
        whether another case of the same seed filled the memo before it."""

        def outcome(target):
            result = cover(target, CoverMeConfig(n_start=16, n_iter=3, seed=42))
            inputs = [tuple(v.hex() for v in x) for x in result.inputs]
            return inputs, result.covered, result.evaluations

        first = outcome(sp.nested_branches)
        outcome(sp.boolean_condition)  # the same seed and arity: same rows
        hits = scheduler_module._draw.cache_info().hits
        assert hits > 0
        assert outcome(sp.nested_branches) == first
        assert scheduler_module._draw.cache_info().hits > hits


class TestEngineBehaviour:
    def test_engine_reuses_driver_tracker(self):
        coverme = CoverMe(sp.single_branch, CoverMeConfig(n_start=8, seed=0))
        result = coverme.run()
        assert coverme.tracker.covered >= set(result.covered)
        assert result.branch_coverage == 1.0

    def test_evaluations_count_only_the_reduced_starts(self):
        """Saturation stops the run mid-batch; the starts after it never
        run, so they add no evaluations."""
        result = cover(sp.single_branch, CoverMeConfig(n_start=16, n_iter=3, seed=0))
        assert result.n_starts_used < 8
        assert result.evaluations == sum(t.evaluations for t in result.traces)

    def test_newly_covered_decodes_what_each_accepted_start_added(self):
        """A trace keeps its newly covered branches as a mask; reading
        ``newly_covered`` gives the branches the start's minimum covers
        that no earlier start had, and nothing for a rejected start."""
        program = instrument(sp.nested_branches)
        result = SearchEngine(program, CoverMeConfig(n_start=16, n_iter=3, seed=0)).run()
        reference = RepresentingFunction(program)
        seen: frozenset = frozenset()
        added = []
        for trace in result.traces:
            assert isinstance(trace.newly_covered, frozenset)
            if not trace.accepted:
                assert trace.newly_covered == frozenset()
                continue
            covered = reference.evaluate_with_coverage(trace.minimum_point)[1].covered
            assert trace.newly_covered == covered - seen
            seen |= trace.newly_covered
            added.append(sorted(trace.newly_covered))
        assert seen == result.covered
        assert len(added) >= 2  # more than one start added branches


class TestBatchedExperiments:
    def _profile(self) -> Profile:
        return Profile(
            name="tiny",
            n_start=8,
            n_iter=2,
            max_cases=2,
            coverme_time_budget=None,
            baseline_execution_factor=1,
            baseline_min_executions=200,
        )

    def test_compare_tools_batched_matches_sequential(self):
        factories = {
            "CoverMe": lambda profile: coverme_tool(profile),
            "Rand": lambda profile: RandomTester(seed=profile.seed + 1),
        }
        profile = self._profile()
        sequential = compare_tools(factories, profile, n_workers=1)
        batched = compare_tools(factories, profile, n_workers=2)
        assert [row.case.function for row in sequential] == [
            row.case.function for row in batched
        ]
        for seq_row, par_row in zip(sequential, batched):
            for tool in ("CoverMe", "Rand"):
                assert seq_row.coverage(tool) == par_row.coverage(tool)
