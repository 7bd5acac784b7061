"""Tests for the search-engine subsystem: scheduler, starts, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.random_testing import RandomTester
from repro.core.config import CoverMeConfig
from repro.core.coverme import CoverMe, cover
from repro.engine.scheduler import _STREAM_NORMAL, START_SCALE, StartScheduler
from repro.engine import worker as worker_module
from repro.engine.worker import StartParams, StartTask, run_start
from repro.experiments.runner import Profile, compare_tools, coverme_tool
from repro.instrument.program import instrument
from repro.instrument.runtime import BranchId
from repro.instrument.signature import ProgramSignature
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


class TestLazyStartGenerator:
    """A start builds its random generator at its first draw."""

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
        task = StartTask(index=0, x0=(0.5,), covered=frozenset(), infeasible=frozenset())
        result = run_start(program, self._PARAMS, task)
        assert result.value == 0.0
        assert built == []

    def test_drawing_start_matches_an_eager_generator(self, built, monkeypatch):
        """A start that hops draws from one generator with the eager seed,
        so its trajectory is bit-identical to an eagerly built one."""
        program = instrument(sp.infeasible_inner)
        covered = frozenset({BranchId(0, True), BranchId(0, False), BranchId(1, False)})
        task = StartTask(index=7, x0=(3.0,), covered=covered, infeasible=frozenset())
        lazy = run_start(program, self._PARAMS, task)
        assert built == [([5, worker_module._STREAM_WORKER, 7],)]
        monkeypatch.setattr(worker_module, "_LazyGenerator", np.random.default_rng)
        eager = run_start(program, self._PARAMS, task)
        assert lazy.value > 0.0
        assert (lazy.x_star, lazy.value, lazy.evaluations) == (
            eager.x_star, eager.value, eager.evaluations)


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
