"""Tests for the saturation-specialized penalty codegen tier.

The contract under test: for every saturation mask, the specialized variant
computes a bit-identical ``r`` to the generic runtimes and identical return
values, and writes no coverage (only the mask-generic form does); and the
epoch protocol recompiles only when the mask actually changes.
"""

from __future__ import annotations

import ast
import struct

import numpy as np
import pytest

from repro.core.branch_distance import DEFAULT_EPSILON
from repro.core.representing import RepresentingFunction
from repro.core.saturation import SaturationTracker
from repro.experiments.runner import instrument_case
from repro.fdlibm.suite import BENCHMARKS
from repro.instrument import ast_pass
from repro.instrument.program import (
    InstrumentationError,
    clear_compiled_cache,
    compiled_cache_info,
    instrument,
)
from repro.instrument.runtime import ExecutionProfile, FastRuntime, Runtime
from repro.instrument.specialize import COV_NAME, specialize_source
from tests import sample_programs as sp

#: Sample targets covering every lowered conditional form (simple, negated,
#: boolean trees, De Morgan, chains, ternary, promoted, loops, helpers).
PARITY_TARGETS = (
    sp.single_branch,
    sp.paper_foo,
    sp.nested_branches,
    sp.early_return,
    sp.loop_program,
    sp.boolean_condition,
    sp.equality_chain,
    sp.truthiness,
    sp.nested_boolean,
    sp.demorgan,
    sp.chained_comparison,
    sp.ternary_test,
    sp.mixed_leaves,
    sp.while_else_loop,
    sp.huge_int_guard,
    sp.int_square,
    sp.int_square_masked,
    sp.ternary_in_tree,
    sp.three_dimensional,
    sp.raises_for_small,
)

_SPECIAL_VALUES = (0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e308, 2.0, 9.0)


def _bits(value: float) -> bytes:
    return struct.pack("=d", value)


def _run_fast(program, mask: int, args) -> tuple[object, float, int]:
    """Reference execution through the generic FastRuntime: the return
    value, ``r`` and the covered-bit mask."""
    fast = FastRuntime(program.n_conditionals)
    program.handle.install(fast)
    fast.begin(mask)
    value: object = None
    try:
        value = program.entry(*args)
    except (ArithmeticError, ValueError, OverflowError):
        value = None
    return value, fast.r, fast.covered_mask()


def _assert_parity(program, mask: int, args) -> None:
    value_ref, r_ref, _ = _run_fast(program, mask, args)
    value_sp, r_sp = program.specialize(mask).run(args)
    assert _bits(r_sp) == _bits(r_ref), (program.name, hex(mask), args, r_sp, r_ref)
    same = value_sp == value_ref or (value_sp != value_sp and value_ref != value_ref)
    assert same, (program.name, hex(mask), args, value_sp, value_ref)


class TestSpecializedParity:
    @pytest.mark.parametrize("target", PARITY_TARGETS, ids=lambda f: f.__name__)
    def test_bit_identical_over_random_masks(self, target):
        program = instrument(target)
        n = program.n_conditionals
        rng = np.random.default_rng(11)
        specials = [
            s
            for s in _SPECIAL_VALUES
            # loop_program halves x until <= 1: +inf would never terminate
            # (in every tier alike), so it stays out of the point set.
            if not (target is sp.loop_program and s == float("inf"))
        ]
        for _ in range(15):
            mask = int(rng.integers(0, 1 << (2 * n)))
            points = [list(rng.normal(scale=5.0, size=program.arity)) for _ in range(5)]
            points += [[s] * program.arity for s in specials]
            for point in points:
                _assert_parity(program, mask, [float(v) for v in point])

    def test_full_suite_conditional_forms(self):
        """Every suite entry's lowered forms, under empty/partial/full masks."""
        rng = np.random.default_rng(7)
        for case in BENCHMARKS:
            program = instrument_case(case)
            n = program.n_conditionals
            tracker = SaturationTracker(program)
            for _ in range(4):
                x = tuple(rng.normal(scale=100.0, size=program.arity))
                _, _, record = program.run(x, runtime=Runtime())
                tracker.add_execution(record)
            masks = (0, tracker.saturated_mask, (1 << (2 * n)) - 1)
            for mask in masks:
                for point in rng.normal(scale=50.0, size=(3, program.arity)):
                    _assert_parity(program, mask, [float(v) for v in point])

    def test_helper_functions_specialize_together(self):
        """Extra functions compile into the same specialized namespace."""
        program = instrument(sp.calls_helper, extra_functions=[sp.helper_goo])
        for mask in (0, 0b01, 0b11):
            for x in (-1.0, 0.1, 0.6, 7.0):
                _assert_parity(program, mask, [x])

    def test_stripped_sites_record_no_coverage(self):
        """Per-mask variants compute ``r`` only: no site writes a covered
        bit, under any mask; the mask-generic form writes every one."""
        for target in PARITY_TARGETS:
            program = instrument(target)
            full = (1 << (2 * program.n_conditionals)) - 1
            for source, name, label in program.units:
                for mask in (0, 0b01, 0b10, full):
                    tree, _ = specialize_source(source, name, label, mask)
                    assert COV_NAME not in ast.unparse(tree), (target.__name__, mask)
                generic, n_conditionals = specialize_source(source, name, label, None)
                assert ast.unparse(generic).count(COV_NAME) >= n_conditionals
            assert COV_NAME not in program.specialize(full).namespace

    def test_truth_fallback_degrades_identically(self, monkeypatch):
        """When the AST pass declines a tree, the specializer must too."""
        clear_compiled_cache()
        try:
            monkeypatch.setattr(ast_pass, "MAX_TREE_TOKENS", 2)
            program = instrument(sp.nested_boolean)
            assert any(cond.form == "truth" for cond in program.conditionals)
            rng = np.random.default_rng(3)
            for _ in range(10):
                mask = int(rng.integers(0, 1 << (2 * program.n_conditionals)))
                for point in rng.normal(scale=5.0, size=(4, 2)):
                    _assert_parity(program, mask, [float(v) for v in point])
        finally:
            # The caches key on source digests, so entries built under the
            # patched ceiling must not leak into other tests.
            clear_compiled_cache()

    def test_pointwise_equal_to_penalty_profile(self):
        """RepresentingFunction values match the recording penalty tier mid-search."""
        program = instrument(sp.nested_boolean)
        tracker = SaturationTracker(program)
        specialized = RepresentingFunction(
            program, tracker, profile=ExecutionProfile.PENALTY_SPECIALIZED
        )
        penalty = RepresentingFunction(program, tracker, profile=ExecutionProfile.FULL_TRACE)
        rng = np.random.default_rng(5)
        for index in range(120):
            x = rng.normal(scale=10.0, size=program.arity)
            assert _bits(specialized(x)) == _bits(penalty(x))
            if index % 30 == 29:  # evolve saturation mid-stream
                _, coverage = penalty.evaluate_with_coverage(x)
                tracker.add_covered(set(coverage.covered))


class TestEpochProtocol:
    def test_zero_recompiles_while_mask_unchanged(self):
        program = instrument(sp.paper_foo)
        tracker = SaturationTracker(program)
        representing = RepresentingFunction(
            program, tracker, profile=ExecutionProfile.PENALTY_SPECIALIZED
        )
        for x in np.linspace(-3.0, 3.0, 60):
            representing([float(x)])
        assert representing.respecializations == 1  # the initial variant only
        assert program.specialization_builds == 1

    def test_respecializes_exactly_on_saturation_flip(self):
        program = instrument(sp.paper_foo)
        tracker = SaturationTracker(program)
        representing = RepresentingFunction(
            program, tracker, profile=ExecutionProfile.PENALTY_SPECIALIZED
        )
        representing([0.7])
        assert (representing.respecializations, program.specialization_builds) == (1, 1)
        before = tracker.saturated_mask
        for x in (0.7, 1.0, 1.1, -5.2):
            _, _, record = program.run((x,), runtime=Runtime())
            tracker.add_execution(record)
        assert tracker.saturated_mask != before
        representing([0.7])
        representing([0.9])
        assert (representing.respecializations, program.specialization_builds) == (2, 2)

    def test_seen_masks_are_cache_hits(self):
        program = instrument(sp.paper_foo)
        first = program.specialize(0b0110)
        again = program.specialize(0b0110)
        assert first is again
        assert program.specialization_builds == 1

    def test_pen_cases_behave_like_fast_runtime(self):
        """r semantics across the three pen cases, driven through the tracker."""
        program = instrument(sp.paper_foo)
        tracker = SaturationTracker(program)
        representing = RepresentingFunction(
            program, tracker, profile=ExecutionProfile.PENALTY_SPECIALIZED
        )
        assert representing([0.7]) == 0.0  # nothing saturated: pen case (a)
        for x in (0.7, 1.0, 1.1, -5.2):
            _, _, record = program.run((x,), runtime=Runtime())
            tracker.add_execution(record)
        assert tracker.all_saturated()
        assert representing([0.7]) > 0.0  # everything saturated: pen case (c)

    def test_clone_shares_compiled_specializations(self):
        clear_compiled_cache()
        program = instrument(sp.nested_branches)
        program.specialize(0b1001)
        entries = compiled_cache_info()["specialized"]["entries"]
        clone = program.clone()
        clone.specialize(0b1001)
        info = compiled_cache_info()["specialized"]
        assert info["entries"] == entries  # compile shared, only re-exec'd
        assert info["hits"] >= 1
        assert clone.specialization_builds == 1  # the clone's own namespace


class TestSpecializedProgramAPI:
    def test_run_specialized_matches_variant_run(self):
        program = instrument(sp.paper_foo)
        r = program.run_specialized([0.5], 0)
        assert _bits(r) == _bits(program.specialize(0).run([0.5])[1])

    def test_run_specialized_honors_epsilon_and_mask(self):
        """The specialized tier bakes in the fixed epsilon and the mask like
        a fast runtime."""
        program = instrument(sp.paper_foo)
        fast = FastRuntime(program.n_conditionals, saturated_mask=0b1000)
        for point in ([-3.0], [0.7], [1.0]):
            program.handle.install(fast)
            fast.begin()
            try:
                program.entry(*point)
            except (ArithmeticError, ValueError, OverflowError):
                pass
            r = program.run_specialized(point, 0b1000)
            assert _bits(r) == _bits(fast.r), point
        # y == 4.0 holds at x = 1 with its true branch saturated: r is the
        # distance to falsifying an equality, Def. 4.1's epsilon.
        assert program.run_specialized([1.0], 0b1000) == DEFAULT_EPSILON

    def test_programs_without_units_cannot_specialize(self, paper_foo_program):
        import dataclasses

        bare = dataclasses.replace(paper_foo_program, units=())
        with pytest.raises(InstrumentationError, match="cannot be specialized"):
            bare.specialize(0)

    def test_cache_info_reports_specialized_stats(self):
        clear_compiled_cache()
        info = compiled_cache_info()
        assert info["specialized"]["entries"] == 0
        assert {"hits", "misses", "evictions", "max_entries"} <= set(info["specialized"])
        program = instrument(sp.single_branch)
        program.specialize(0)
        assert compiled_cache_info()["specialized"]["entries"] == 1
        clear_compiled_cache()
        cleared = compiled_cache_info()
        assert cleared["entries"] == 0
        assert cleared["specialized"]["entries"] == 0
        assert cleared["specialized"]["misses"] == 0

    def test_variant_cache_is_bounded(self):
        from repro.instrument import program as program_module

        program = instrument(sp.three_dimensional)  # 3 conditionals: 64 masks
        limit = program_module._VARIANTS_MAX
        n_masks = 1 << (2 * program.n_conditionals)
        for mask in range(n_masks):
            program.specialize(mask)
        assert len(program._variants) <= limit
        assert program.specialization_builds == n_masks


class TestRepresentingSpecialized:
    def test_evaluate_with_coverage_is_complete(self):
        """Coverage harvest must not inherit the partial specialized bitset."""
        program = instrument(sp.nested_branches)
        outcomes = {}
        for profile in (ExecutionProfile.FULL_TRACE, ExecutionProfile.PENALTY_SPECIALIZED):
            representing = RepresentingFunction(
                program, SaturationTracker(program), profile=profile
            )
            value, coverage = representing.evaluate_with_coverage([1.0, -1.0])
            outcomes[profile] = (
                value,
                coverage.covered,
                coverage.last_conditional,
                coverage.last_outcome,
            )
        assert len(set(outcomes.values())) == 1, outcomes

    def test_evaluate_with_record_materializes_trace(self):
        program = instrument(sp.paper_foo)
        representing = RepresentingFunction(
            program, SaturationTracker(program), profile=ExecutionProfile.PENALTY_SPECIALIZED
        )
        value, record = representing.evaluate_with_record([0.5])
        assert record.path
        assert value == representing.last_value

    def test_nonfinite_r_is_clamped(self):
        """C1 (FOO_R >= 0, finite) holds under the specialized tier too."""
        program = instrument(sp.boolean_condition)
        tracker = SaturationTracker(program)
        representing = RepresentingFunction(
            program, tracker, profile=ExecutionProfile.PENALTY_SPECIALIZED
        )
        for x in ([float("nan"), 1.0], [float("inf"), float("inf")], [1e300, -1e300]):
            value = representing(x)
            assert 0.0 <= value <= 1.0e300

    def test_coerce_accepts_common_shapes(self):
        program = instrument(sp.paper_foo)
        representing = RepresentingFunction(
            program, SaturationTracker(program), profile=ExecutionProfile.PENALTY_SPECIALIZED
        )
        reference = representing(np.array([0.5]))
        assert representing(0.5) == reference
        assert representing([0.5]) == reference
        assert representing((0.5,)) == reference
        assert representing(np.array(0.5)) == reference  # 0-d array
        assert representing(np.array([0.5], dtype=np.float32)) == reference
        with pytest.raises(ValueError, match="expects 1 inputs"):
            representing(np.array([1.0, 2.0]))
