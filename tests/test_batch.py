"""Tests of the batched vectorized penalty tier (``instrument/batch.py``).

The contract under test is the one the engine relies on: one
:class:`~repro.instrument.batch.BatchKernel` call over an ``(N, arity)``
float64 array returns exactly the penalty vector that N scalar
``PENALTY_SPECIALIZED`` executions would return -- bit-for-bit, NaN and
infinity rows included, in both the whole-array **vector** mode and the
per-row **rows** fallback -- plus the union of their covered bits.  On top
of that sit the cache/epoch plumbing, the memo seeding that chunk priming
uses, and the engine-level identity of primed vs unprimed runs.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core.config import CoverMeConfig
from repro.core.representing import RepresentingFunction
from repro.core.saturation import SaturationTracker
from repro.engine import pool as pool_module
from repro.engine import worker as worker_module
from repro.engine.core import SearchEngine
from repro.experiments.runner import instrument_case
from repro.fdlibm.suite import BENCHMARKS
from repro.instrument.program import (
    clear_compiled_cache,
    compiled_cache_info,
    instrument,
)
from repro.instrument.runtime import ExecutionProfile
from repro.optimize.memo import BitPatternMemo
from tests import sample_programs as sp
from tests.test_specialize import PARITY_TARGETS

_SPECIAL_VALUES = (0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e308, 1e-320, 2.0)

#: Programs whose loops never terminate on +inf input (in every tier alike).
_NO_INF = (sp.loop_program, sp.while_else_loop)


def _bits(value: float) -> bytes:
    return struct.pack("=d", value)


def _point_rows(rng, target, arity: int, n_random: int) -> np.ndarray:
    specials = [s for s in _SPECIAL_VALUES if not (target in _NO_INF and s == float("inf"))]
    rows = [rng.normal(scale=5.0, size=arity) for _ in range(n_random)]
    rows += [[s] * arity for s in specials]
    return np.ascontiguousarray(rows, dtype=np.float64)


def _assert_batch_parity(program, mask: int, X: np.ndarray) -> None:
    kernel = program.batch_kernel(mask)
    r_batch, cov_batch = kernel(X)
    cov_expected = 0
    for i, row in enumerate(X):
        # .tolist() yields Python floats, matching the engine's scalar
        # coercion; numpy scalars would change the program's own
        # bool/float type checks.
        _, r_scalar, cov_scalar = program.run_specialized(row.tolist(), mask)
        cov_expected |= cov_scalar
        assert _bits(float(r_batch[i])) == _bits(r_scalar), (
            program.name,
            hex(mask),
            kernel.mode,
            row,
            float(r_batch[i]),
            r_scalar,
        )
    assert cov_batch == cov_expected, (program.name, hex(mask), kernel.mode)


class TestSampleFormParity:
    @pytest.mark.parametrize("target", PARITY_TARGETS, ids=lambda f: f.__name__)
    def test_bit_identical_over_random_masks(self, target):
        program = instrument(target)
        rng = np.random.default_rng(29)
        n = program.n_conditionals
        for _ in range(6):
            mask = int(rng.integers(0, 1 << (2 * n)))
            X = _point_rows(rng, target, program.arity, n_random=6)
            _assert_batch_parity(program, mask, X)

    def test_zero_mask_and_all_saturated_mask(self):
        for target in (sp.paper_foo, sp.nested_boolean, sp.chained_comparison):
            program = instrument(target)
            rng = np.random.default_rng(31)
            X = _point_rows(rng, target, program.arity, n_random=4)
            for mask in (0, (1 << (2 * program.n_conditionals)) - 1):
                _assert_batch_parity(program, mask, X)


class TestFdlibmSuiteParity:
    @pytest.mark.parametrize(
        "case", BENCHMARKS, ids=lambda c: c.function.split("(")[0]
    )
    def test_bit_identical_row_for_row(self, case):
        program = instrument_case(case)
        rng = np.random.default_rng(23)
        n_bits = 2 * program.n_conditionals
        rows = [rng.uniform(-50, 50, size=program.arity) for _ in range(8)]
        rows += [[s] * program.arity for s in _SPECIAL_VALUES]
        X = np.ascontiguousarray(rows, dtype=np.float64)
        for trial in range(3):
            mask = int(rng.integers(0, 1 << min(n_bits, 62))) if trial else 0
            _assert_batch_parity(program, mask, X)


class TestModeSelection:
    def test_vectorizable_suite_entries_compile_to_vector_mode(self):
        by_name = {c.function.split("(")[0]: c for c in BENCHMARKS}
        for name in ("floor", "nextafter", "expm1"):
            program = instrument_case(by_name[name])
            assert program.batch_kernel(0).mode == "vector", name

    def test_loops_and_helpers_fall_back_to_rows(self):
        for target in (sp.loop_program, sp.huge_int_guard):
            program = instrument(target)
            assert program.batch_kernel(0).mode == "rows", target.__name__
        # Multi-unit programs (instrumented helpers) always run per-row.
        multi = instrument(sp.calls_helper, extra_functions=[sp.helper_goo])
        assert multi.batch_kernel(0).mode == "rows"

    def test_simple_branch_is_vector(self):
        program = instrument(sp.paper_foo)
        assert program.batch_kernel(0).mode == "vector"


def trunc_overflows(x):
    k = int(x)
    if k > 10:
        return 1.0
    return 0.0


class TestRuntimeDemotion:
    def test_int64_overflow_demotes_to_rows_with_identical_values(self):
        """int() of a double >= 2**63 cannot be replicated in int64 lanes:
        the kernel bails out of vector mode mid-call, re-runs the batch
        through the per-row path and stays demoted (sticky)."""
        program = instrument(trunc_overflows)
        kernel = program.batch_kernel(0)
        assert kernel.mode == "vector"
        X = np.ascontiguousarray([[2.5], [1e19], [-3.0]], dtype=np.float64)
        _assert_batch_parity(program, 0, X)
        assert kernel.mode == "rows"
        # Still correct (and still one kernel) after demotion.
        _assert_batch_parity(program, 0, X)


class TestCaches:
    def test_program_kernel_cache_and_build_counter(self):
        program = instrument(sp.paper_foo)
        first = program.batch_kernel(0)
        assert program.batch_kernel(0) is first
        assert program.batched_kernel_builds == 1
        program.batch_kernel(3)
        assert program.batched_kernel_builds == 2

    def test_compiled_cache_info_reports_batched_and_clear_clears_it(self):
        clear_compiled_cache()
        info = compiled_cache_info()
        assert "batched" in info
        assert {"hits", "misses", "evictions", "entries"} <= set(info["batched"])
        baseline = compiled_cache_info()["batched"]["entries"]
        program = instrument(sp.paper_foo)
        program.batch_kernel(0)
        assert compiled_cache_info()["batched"]["entries"] > baseline
        clear_compiled_cache()
        after = compiled_cache_info()["batched"]
        assert after["entries"] == 0
        assert after["hits"] == 0 and after["misses"] == 0

    def test_module_cache_hits_across_program_instances(self):
        clear_compiled_cache()
        instrument(sp.paper_foo).batch_kernel(0)
        misses_before = compiled_cache_info()["batched"]["misses"]
        instrument(sp.paper_foo).batch_kernel(0)
        info = compiled_cache_info()["batched"]
        assert info["misses"] == misses_before
        assert info["hits"] >= 1


class TestRepresentingEvaluateBatch:
    def test_matches_scalar_calls_and_counts_evaluations(self):
        program = instrument(sp.paper_foo)
        tracker = SaturationTracker(program)
        batched = RepresentingFunction(
            program, tracker, profile=ExecutionProfile.PENALTY_SPECIALIZED
        )
        scalar = RepresentingFunction(
            program,
            SaturationTracker(program),
            profile=ExecutionProfile.PENALTY_SPECIALIZED,
        )
        rng = np.random.default_rng(5)
        X = _point_rows(rng, sp.paper_foo, program.arity, n_random=10)
        values = batched.evaluate_batch(X)
        assert batched.evaluations == X.shape[0]
        assert batched.batched_calls == 1
        assert batched.batch_respecializations == 1
        for i, row in enumerate(X):
            assert _bits(float(values[i])) == _bits(scalar(row))

    def test_epoch_protocol_rebuilds_only_on_mask_flip(self):
        program = instrument(sp.paper_foo)
        tracker = SaturationTracker(program)
        representing = RepresentingFunction(
            program, tracker, profile=ExecutionProfile.PENALTY_SPECIALIZED
        )
        X = np.ascontiguousarray([[4.0], [1.0]], dtype=np.float64)
        representing.evaluate_batch(X)
        representing.evaluate_batch(X)
        assert representing.batch_respecializations == 1
        builds = program.batched_kernel_builds
        # Flip a saturation bit: the next batch must pick up a new kernel.
        _, coverage = representing.evaluate_with_coverage([4.0])
        tracker.add_covered(set(coverage.covered))
        if tracker.saturated_mask != 0:
            representing.evaluate_batch(X)
            assert representing.batch_respecializations == 2
            assert program.batched_kernel_builds >= builds

    def test_non_specialized_profile_loops_per_row(self):
        program = instrument(sp.paper_foo)
        representing = RepresentingFunction(
            program, SaturationTracker(program), profile=ExecutionProfile.PENALTY_ONLY
        )
        X = np.ascontiguousarray([[4.0], [0.0], [-1.0]], dtype=np.float64)
        values = representing.evaluate_batch(X)
        scalar = RepresentingFunction(
            program, SaturationTracker(program), profile=ExecutionProfile.PENALTY_ONLY
        )
        for i, row in enumerate(X):
            assert _bits(float(values[i])) == _bits(scalar(row))


class TestMemoBatchAPIs:
    def test_seed_plants_value_without_counting(self):
        calls = []

        def func(x):
            calls.append(tuple(np.atleast_1d(x)))
            return float(np.sum(np.atleast_1d(x)) * 2.0)

        memo = BitPatternMemo(func, arity=2, max_entries=8)
        memo.seed([1.0, 2.0], 42.0)
        assert memo.hits == 0 and memo.misses == 0
        assert memo([1.0, 2.0]) == 42.0
        assert memo.hits == 1 and len(calls) == 0


class TestEngineIdentity:
    def _run(self, target, *, n_workers, mode, profile):
        program = instrument(target)
        config = CoverMeConfig(
            n_start=16,
            n_iter=2,
            seed=13,
            eval_profile=profile,
            n_workers=n_workers,
            worker_mode=mode,
        )
        result = SearchEngine(program, config).run()
        return (
            tuple(result.inputs),
            result.covered,
            result.saturated,
            frozenset(result.infeasible),
            result.evaluations,
            result.n_starts_used,
            tuple(
                (t.start, t.minimum_point, t.minimum_value, t.accepted, t.evaluations)
                for t in result.traces
            ),
        )

    @pytest.mark.parametrize("target", (sp.paper_foo, sp.nested_boolean), ids=lambda f: f.__name__)
    def test_run_sets_identical_batched_vs_scalar(self, target, monkeypatch):
        primes = []
        original = worker_module.prime_chunk

        def counting(program, params, tasks):
            primed = original(program, params, tasks)
            primes.append(primed is not None)
            return primed

        monkeypatch.setattr(pool_module, "prime_chunk", counting)
        for n_workers, mode in ((1, "serial"), (3, "thread")):
            primes.clear()
            batched = self._run(
                target, n_workers=n_workers, mode=mode, profile="penalty-specialized"
            )
            assert primes and all(primes), (target.__name__, mode)
            with monkeypatch.context() as unprimed:
                unprimed.setattr(worker_module, "_PRIMED_PROFILES", ())
                primes.clear()
                scalar = self._run(
                    target, n_workers=n_workers, mode=mode, profile="penalty-specialized"
                )
                assert primes and not any(primes), (target.__name__, mode)
            generic = self._run(target, n_workers=n_workers, mode=mode, profile="penalty")
            assert batched == scalar, (target.__name__, mode)
            assert batched == generic, (target.__name__, mode)
