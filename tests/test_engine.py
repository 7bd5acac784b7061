"""Tests for the search-engine subsystem: scheduler, pools, determinism."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.baselines.random_testing import RandomTester
from repro.core.config import CoverMeConfig
from repro.core.coverme import CoverMe, cover
from repro.engine.core import SearchEngine
from repro.engine.pool import (
    _origin_importable_in_child,
    chunk_evenly,
    process_context,
    resolve_worker_mode,
)
from repro.engine.scheduler import _STREAM_NORMAL, START_SCALE, StartScheduler
from repro.engine import worker as worker_module
from repro.engine.worker import StartParams, StartTask, origin_is_picklable, run_start
from repro.experiments.runner import Profile, compare_tools, coverme_tool
from repro.fdlibm.k_cos import kernel_cos
from repro.fdlibm.s_tanh import fdlibm_tanh
from repro.instrument.program import (
    InstrumentationError,
    InstrumentedProgram,
    instrument,
)
from repro.instrument.runtime import BranchId
from repro.instrument.signature import ProgramSignature
from tests import sample_programs as sp


def run_sets(target, n_workers, worker_mode, **overrides):
    config = CoverMeConfig(
        n_start=16, n_iter=3, seed=42, n_workers=n_workers, worker_mode=worker_mode, **overrides
    )
    result = cover(target, config)
    return result.covered, result.saturated, result.inputs


class TestSeededDeterminism:
    """Same seed => identical results for every worker count and mode."""

    @pytest.mark.parametrize("target", [sp.nested_branches, fdlibm_tanh, kernel_cos])
    def test_worker_counts_agree_thread(self, target):
        baseline = run_sets(target, 1, "auto")
        for n_workers in (2, 4):
            assert run_sets(target, n_workers, "thread") == baseline

    def test_process_workers_agree_with_serial(self):
        baseline = run_sets(fdlibm_tanh, 1, "serial")
        assert run_sets(fdlibm_tanh, 4, "process") == baseline

    def test_all_modes_agree(self):
        serial = run_sets(sp.three_dimensional, 1, "serial")
        assert run_sets(sp.three_dimensional, 2, "thread") == serial
        assert run_sets(sp.three_dimensional, 2, "process") == serial

    def test_seeded_starts_are_deterministic_and_seed_dependent(self):
        first = run_sets(sp.nested_branches, 1, "auto")
        assert run_sets(sp.nested_branches, 1, "auto") == first
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


class TestWorkerModeResolution:
    def test_picklable_origin_resolves_to_process(self):
        program = instrument(sp.paper_foo)
        assert resolve_worker_mode(program, "auto", 4) == "process"

    def test_single_worker_is_serial(self):
        program = instrument(sp.paper_foo)
        assert resolve_worker_mode(program, "auto", 1) == "serial"

    def test_explicit_serial_never_escalates(self):
        program = instrument(sp.paper_foo)
        assert resolve_worker_mode(program, "serial", 4) == "serial"

    def test_local_function_falls_back_to_thread(self):
        def local_target(x: float) -> int:
            if x > 0.0:
                return 1
            return 0

        program = instrument(local_target)
        assert resolve_worker_mode(program, "auto", 2) == "thread"
        with pytest.raises(ValueError, match="picklable origin"):
            resolve_worker_mode(program, "process", 2)

    def test_originless_program_falls_back_to_serial(self):
        program = instrument(sp.paper_foo)
        bare = InstrumentedProgram(
            name=program.name,
            signature=program.signature,
            conditionals=program.conditionals,
            descendants=program.descendants,
            entry=program.entry,
            handle=program.handle,
        )
        assert bare.origin is None
        assert resolve_worker_mode(bare, "auto", 4) == "serial"
        # An *explicit* thread request must fail loudly, like "process" does,
        # instead of silently losing the parallelism the caller asked for.
        with pytest.raises(ValueError, match="no origin"):
            resolve_worker_mode(bare, "thread", 4)
        with pytest.raises(InstrumentationError):
            bare.clone()

    def test_unknown_mode_rejected(self):
        program = instrument(sp.paper_foo)
        with pytest.raises(ValueError, match="unknown worker mode"):
            resolve_worker_mode(program, "fiber", 2)


class TestProgramClone:
    def test_clone_has_independent_runtime_handle(self):
        program = instrument(sp.paper_foo, extra_functions=())
        clone = program.clone()
        assert clone is not program
        assert clone.handle is not program.handle
        assert clone.n_branches == program.n_branches
        _, r, record = clone.run((0.7,))
        assert record.covered

    def test_clone_preserves_extra_functions(self):
        program = instrument(sp.calls_helper, extra_functions=[sp.helper_goo])
        clone = program.clone()
        assert clone.n_branches == program.n_branches == 2
        _, _, record = clone.run((0.1,))
        assert record.covered


class TestEngineBehaviour:
    def test_engine_reuses_driver_tracker(self):
        coverme = CoverMe(sp.single_branch, CoverMeConfig(n_start=8, seed=0))
        result = coverme.run()
        assert coverme.tracker.covered >= set(result.covered)
        assert result.branch_coverage == 1.0

    def test_parallel_run_on_fdlibm_matches_acceptance_shape(self):
        config = CoverMeConfig(n_start=12, n_iter=2, seed=3, n_workers=4, worker_mode="thread")
        sequential = cover(fdlibm_tanh, CoverMeConfig(n_start=12, n_iter=2, seed=3))
        parallel = cover(fdlibm_tanh, config)
        assert parallel.covered == sequential.covered
        assert parallel.saturated == sequential.saturated

    def test_resolved_mode_exposed(self):
        engine = SearchEngine(
            instrument(sp.paper_foo), CoverMeConfig(n_start=4, seed=0, n_workers=2)
        )
        assert engine.resolved_mode == "process"

    def test_chunk_evenly(self):
        assert chunk_evenly([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]
        assert chunk_evenly([1], 4) == [[1]]
        assert chunk_evenly([], 3) == []

    def test_main_module_origin_never_gets_process_workers(self):
        # A __main__-defined target (REPL, notebook) pickles fine by
        # module+qualname reference, but a spawn/forkserver child cannot
        # re-import it; "auto" must fall back to threads whenever fork is
        # not the chosen start method.  Simulate the REPL by publishing the
        # target in the real __main__ and the threaded parent (which forces
        # the non-fork context on POSIX) with a keeper thread.
        import sys

        def fake_target(x: float) -> int:
            if x > 0.0:
                return 1
            return 0

        main_mod = sys.modules["__main__"]
        fake_target.__module__ = "__main__"
        # Pickle looks functions up by __qualname__ within __module__;
        # instrument() finds them in source by __name__, which stays intact.
        fake_target.__qualname__ = "repro_engine_fake_target"
        setattr(main_mod, "repro_engine_fake_target", fake_target)
        gate = threading.Event()
        keeper = threading.Thread(target=gate.wait)
        keeper.start()
        try:
            program = instrument(fake_target)
            assert origin_is_picklable(program.origin)
            assert not _origin_importable_in_child(program.origin)
            assert process_context().get_start_method() != "fork"
            assert resolve_worker_mode(program, "auto", 4) == "thread"
            with pytest.raises(ValueError, match="__main__"):
                resolve_worker_mode(program, "process", 4)
        finally:
            gate.set()
            keeper.join()
            delattr(main_mod, "repro_engine_fake_target")


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
