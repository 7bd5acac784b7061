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
    parallel_map,
    process_context,
    resolve_worker_mode,
)
from repro.engine.scheduler import StartScheduler, available_strategies
from repro.engine.worker import origin_is_picklable
from repro.experiments.runner import Profile, compare_tools, coverme_tool
from repro.fdlibm.k_cos import kernel_cos
from repro.fdlibm.s_tanh import fdlibm_tanh
from repro.instrument.program import (
    InstrumentationError,
    InstrumentedProgram,
    instrument,
)
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

    def test_strategies_are_deterministic_but_distinct(self):
        per_strategy = {}
        for strategy in available_strategies():
            first = run_sets(sp.nested_branches, 1, "auto", start_strategy=strategy)
            again = run_sets(sp.nested_branches, 1, "auto", start_strategy=strategy)
            assert first == again
            per_strategy[strategy] = first
        # Different strategies draw different starting points.
        starts = {
            strategy: tuple(inputs[:1]) for strategy, (_, _, inputs) in per_strategy.items()
        }
        assert len(set(starts.values())) > 1


class TestStartScheduler:
    signature = ProgramSignature(name="s", arity=3, low=(-2.0, 0.0, 5.0), high=(2.0, 1.0, 9.0))

    def test_batch_shapes(self):
        for strategy in available_strategies():
            scheduler = StartScheduler(self.signature, strategy=strategy, root_seed=1)
            points = scheduler.batch(0, 0, 6)
            assert points.shape == (6, 3)
            assert np.all(np.isfinite(points))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown start strategy"):
            StartScheduler(self.signature, strategy="sobol")

    def test_per_point_strategies_independent_of_batching(self):
        for strategy in ("random-normal", "signature-box"):
            scheduler = StartScheduler(self.signature, strategy=strategy, root_seed=3)
            whole = scheduler.batch(0, 0, 8)
            left = scheduler.batch(0, 0, 5)
            right = scheduler.batch(1, 5, 3)
            assert np.array_equal(np.vstack([left, right]), whole)

    def test_box_strategies_respect_bounds(self):
        low = np.asarray(self.signature.low)
        high = np.asarray(self.signature.high)
        for strategy in ("signature-box", "latin-hypercube"):
            scheduler = StartScheduler(self.signature, strategy=strategy, root_seed=5)
            points = scheduler.batch(0, 0, 16)
            assert np.all(points >= low) and np.all(points <= high)

    def test_latin_hypercube_stratifies_each_dimension(self):
        scheduler = StartScheduler(self.signature, strategy="latin-hypercube", root_seed=7)
        count = 10
        points = scheduler.batch(0, 0, count)
        low = np.asarray(self.signature.low)
        high = np.asarray(self.signature.high)
        unit = (points - low) / (high - low)
        for dim in range(3):
            strata = np.floor(unit[:, dim] * count).astype(int)
            assert sorted(strata) == list(range(count))

    def test_seed_changes_points(self):
        a = StartScheduler(self.signature, root_seed=1).batch(0, 0, 4)
        b = StartScheduler(self.signature, root_seed=2).batch(0, 0, 4)
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

    def test_parallel_map_preserves_order(self):
        items = list(range(20))
        assert parallel_map(lambda v: v * v, items, n_workers=4) == [v * v for v in items]
        assert parallel_map(lambda v: v + 1, items, n_workers=1) == [v + 1 for v in items]

    def test_parallel_map_honors_serial_and_rejects_typos(self):
        items = list(range(5))
        assert parallel_map(lambda v: v * 2, items, n_workers=4, mode="serial") == [
            v * 2 for v in items
        ]
        with pytest.raises(ValueError, match="unknown worker mode"):
            parallel_map(lambda v: v, items, n_workers=4, mode="proces")

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
