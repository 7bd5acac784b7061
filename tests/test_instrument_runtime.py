"""Tests for the instrumentation runtimes (probes, r register, records)."""

from __future__ import annotations

import pytest

from repro.core.branch_distance import DEFAULT_EPSILON
from repro.instrument.runtime import (
    BIG_DISTANCE,
    BranchId,
    ConditionalOutcome,
    ExecutionRecord,
    FastRuntime,
    Runtime,
    RuntimeHandle,
    branch_bit,
    branch_mask,
    branches_from_mask,
    tree_and,
    tree_or,
)


class ConstantPolicy:
    """Penalty policy that records calls and sets r to a constant."""

    def __init__(self, value=0.25):
        self.value = value
        self.calls = []

    def penalty(self, conditional, d_true, d_false, outcome, current_r):
        self.calls.append((conditional, d_true, d_false, outcome, current_r))
        return self.value


class TestBranchId:
    def test_ordering_and_sibling(self):
        branch = BranchId(3, True)
        assert branch.sibling == BranchId(3, False)
        assert BranchId(1, False) < BranchId(2, True)

    def test_repr(self):
        assert repr(BranchId(4, True)) == "4T"
        assert repr(BranchId(0, False)) == "0F"


class TestRuntimeProbes:
    def test_cmp_returns_outcome_and_records_on_resolve(self):
        rt = Runtime()
        rt.begin()
        outcome = rt.cmp(0, "<=", 1.0, 2.0, 0)
        assert outcome is True
        assert rt.resolve(0, (0,), outcome) is True
        r, record = rt.end()
        assert r == 1.0  # no policy installed
        assert record.covered == {BranchId(0, True)}

    def test_cmp_rejects_bad_operator(self):
        rt = Runtime()
        rt.begin()
        with pytest.raises(ValueError):
            rt.cmp(0, "?", 1.0, 2.0, 0)

    def test_distances_reach_policy(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        rt.test(0, "==", 3.0, 5.0)
        assert len(policy.calls) == 1
        conditional, d_true, d_false, outcome, current_r = policy.calls[0]
        assert conditional == 0
        assert d_true == pytest.approx(4.0)
        assert d_false == 0.0
        assert outcome is False
        assert current_r == 1.0
        assert rt.r == 0.25

    def test_truth_promotes_numbers(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        assert rt.truth(0, 3.5) is True
        _, d_true, d_false, _, _ = policy.calls[0]
        assert d_true == 0.0  # 3.5 != 0 holds
        assert d_false > 0.0

    def test_truth_with_non_numeric_records_coverage_only(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        assert rt.truth(0, "nonempty") is True
        assert policy.calls == []  # no distance available, r untouched
        assert BranchId(0, True) in rt.record.covered

    def test_nan_operand_yields_large_distance(self):
        rt = Runtime()
        rt.begin()
        rt.test(0, "<=", float("nan"), 1.0)
        outcome = rt.record.path[0]
        assert outcome.outcome is False
        assert outcome.distance_true == BIG_DISTANCE
        assert outcome.distance_false == 0.0

    def test_and_composition_sums_true_distances(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        first = rt.cmp(0, ">", 0.0, 1.0, 0)   # false, distance to true = 1 + eps
        second = rt.cmp(0, ">", -1.0, 1.0, 1)  # false, distance to true = 4 + eps
        rt.resolve(0, (0, 1, tree_and(2)), first and second)
        _, d_true, d_false, _, _ = policy.calls[0]
        assert d_true == pytest.approx(5.0 + 2 * DEFAULT_EPSILON)
        assert d_false == 0.0

    def test_or_composition_takes_min_true_distance(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        first = rt.cmp(0, ">", 0.0, 1.0, 0)
        second = rt.cmp(0, ">", 0.5, 1.0, 1)
        rt.resolve(0, (0, 1, tree_or(2)), first or second)
        _, d_true, _, _, _ = policy.calls[0]
        assert d_true == pytest.approx(0.25 + DEFAULT_EPSILON)

    def test_begin_resets_state(self):
        rt = Runtime(policy=ConstantPolicy(0.5))
        rt.begin()
        rt.test(0, "==", 1.0, 2.0)
        assert rt.r == 0.5
        rt.begin()
        assert rt.r == 1.0
        assert rt.record.path == []

    def test_evaluation_counter(self):
        rt = Runtime()
        for _ in range(3):
            rt.begin()
            rt.end()
        assert rt.total_evaluations == 3


class TestFusedTestProbe:
    """The fused single-comparison probe must equal cmp + resolve((0,))."""

    def test_matches_cmp_resolve_pair(self):
        for op, lhs, rhs in [("==", 3.0, 5.0), ("<", 1.0, 1.0), (">=", 2.0, -1.0)]:
            fused_policy, paired_policy = ConstantPolicy(), ConstantPolicy()
            fused, paired = Runtime(policy=fused_policy), Runtime(policy=paired_policy)
            fused.begin()
            paired.begin()
            assert fused.test(0, op, lhs, rhs) == paired.resolve(
                0, (0,), paired.cmp(0, op, lhs, rhs, 0)
            )
            assert fused_policy.calls == paired_policy.calls
            assert fused.record.covered == paired.record.covered
            assert fused.record.path[0].distance_true == paired.record.path[0].distance_true

    def test_rejects_bad_operator(self):
        rt = Runtime()
        rt.begin()
        with pytest.raises(ValueError):
            rt.test(0, "?", 1.0, 2.0)

    def test_no_pending_state_left_behind(self):
        rt = Runtime()
        rt.begin()
        rt.test(0, "<", 1.0, 2.0)
        assert rt._leaves == {}


class TestTruthEdgeCases:
    def test_huge_int_falls_back_to_coverage_only(self):
        """Regression: int too large for float() must not crash the probe."""
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        assert rt.truth(0, 10**400) is True
        assert policy.calls == []  # no usable distance, r untouched
        assert rt.r == 1.0
        assert BranchId(0, True) in rt.record.covered

    def test_huge_int_in_cmp_falls_back_to_coverage_only(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        assert rt.test(0, "<", 10**400, 1) is False
        assert policy.calls == []
        assert BranchId(0, False) in rt.record.covered

    def test_bool_value_uses_epsilon_distances(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        assert rt.truth(0, False) is False
        _, d_true, d_false, outcome, _ = policy.calls[0]
        assert d_true == DEFAULT_EPSILON
        assert d_false == 0.0
        assert outcome is False

    @pytest.mark.parametrize("value,expected", [(None, False), ("", False), ([1], True), ({}, False)])
    def test_non_numeric_values_record_coverage_only(self, value, expected):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        assert rt.truth(0, value) is expected
        assert policy.calls == []
        assert BranchId(0, expected) in rt.record.covered


class TestComposeShortCircuit:
    """Short-circuited leaves of and/or tests must not contribute distances."""

    def test_and_short_circuit_uses_only_evaluated_part(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        first = rt.cmp(0, ">", 0.0, 1.0, 0)  # False: leaf 1 never evaluated
        assert first is False
        rt.resolve(0, (0, 1, tree_and(2)), first)
        _, d_true, d_false, outcome, _ = policy.calls[0]
        assert d_true == pytest.approx(1.0 + DEFAULT_EPSILON)
        assert d_false == 0.0
        assert outcome is False

    def test_or_short_circuit_uses_only_evaluated_part(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        first = rt.cmp(0, "<", 0.0, 1.0, 0)  # True: leaf 1 short-circuited
        assert first is True
        rt.resolve(0, (0, 1, tree_or(2)), first)
        _, d_true, d_false, outcome, _ = policy.calls[0]
        assert d_true == 0.0
        assert d_false == pytest.approx(1.0 + DEFAULT_EPSILON)
        assert outcome is True

    def test_partially_usable_parts_compose_from_usable_only(self):
        """A non-numeric operand contributes nothing; the rest still composes."""
        for use_or in (False, True):
            policy = ConstantPolicy()
            rt = Runtime(policy=policy)
            rt.begin()
            first = rt.cmp(0, ">", 10**400, 1, 0)  # no usable distance
            second = rt.cmp(0, ">", 0.0, 1.0, 1)
            program = (0, 1, tree_or(2) if use_or else tree_and(2))
            rt.resolve(0, program, (first or second) if use_or else (first and second))
            _, d_true, d_false, _, _ = policy.calls[0]
            # Only the second leaf's pair, whatever the node.
            assert d_true == pytest.approx(1.0 + DEFAULT_EPSILON)
            assert d_false == 0.0

    def test_all_parts_unusable_leaves_r_alone(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        first = rt.cmp(0, ">", 10**400, 1, 0)
        second = rt.tleaf(0, 1, "opaque")
        rt.resolve(0, (0, 1, tree_or(2)), first or second)
        assert policy.calls == []
        assert rt.r == 1.0
        assert BranchId(0, True) in rt.record.covered

    def test_unknown_mode_rejected(self):
        """``resolve`` takes a token tuple; the flat string modes are gone."""
        rt = Runtime()
        rt.begin()
        rt.cmp(0, "<", 1.0, 2.0, 0)
        rt.cmp(0, "<", 2.0, 3.0, 1)
        for mode in ("and", "or", "single", "xor"):
            with pytest.raises(TypeError):
                rt.resolve(0, mode, True)

    def test_single_usable_part_skips_mode_check(self):
        """With one usable leaf the composition is that leaf, whatever the node."""
        for node in (tree_and(2), tree_or(2)):
            rt = Runtime()
            rt.begin()
            rt.cmp(0, "<", 1.0, 2.0, 0)
            assert rt.resolve(0, (0, 1, node), True) is True
            outcome = rt.record.path[0]
            assert outcome.distance_true == 0.0
            assert outcome.distance_false == pytest.approx(1.0 + DEFAULT_EPSILON)


class TestBranchBitHelpers:
    def test_bit_roundtrip(self):
        branches = {BranchId(0, True), BranchId(3, False), BranchId(7, True)}
        assert branches_from_mask(branch_mask(branches)) == branches

    def test_bit_layout(self):
        assert branch_bit(0, False) == 0
        assert branch_bit(0, True) == 1
        assert branch_bit(5, False) == 10
        assert BranchId(5, True).bit == 11

    def test_empty_mask(self):
        assert branch_mask([]) == 0
        assert branches_from_mask(0) == frozenset()


class SaturatedStub:
    """Minimal stand-in for a SaturationTracker's saturated set."""

    def __init__(self, branches):
        self.saturated = frozenset(branches)


def _reference_r(saturated, script):
    """Run a probe script through Runtime + CoverMePenalty (the reference)."""
    from repro.core.pen import CoverMePenalty

    rt = Runtime(policy=CoverMePenalty(SaturatedStub(saturated)))
    rt.begin()
    script(rt)
    return rt.r, rt.record.covered


def _fast_r(saturated, script, n_conditionals=4):
    rt = FastRuntime(n_conditionals, saturated_mask=branch_mask(saturated))
    rt.begin()
    script(rt)
    return rt.r, rt.covered_branches()


class TestFastRuntimeEquivalence:
    """FastRuntime must compute bit-identical r to Runtime + CoverMePenalty."""

    SCRIPTS = [
        lambda rt: rt.test(0, "<=", 3.0, 1.0),
        lambda rt: rt.test(0, "==", 2.0, 2.0),
        lambda rt: (rt.test(0, ">", 5.0, 1.0), rt.test(1, "<", 5.0, 1.0)),
        lambda rt: rt.test(0, "!=", float("nan"), 1.0),
        lambda rt: rt.test(0, "<", float("nan"), 1.0),
        lambda rt: rt.truth(1, 7.5),
        lambda rt: rt.truth(1, 0),
        lambda rt: rt.truth(1, True),
        lambda rt: rt.truth(1, "opaque"),
        lambda rt: rt.truth(1, 10**400),
        lambda rt: rt.test(2, ">=", 10**400, 1),
        lambda rt: rt.resolve(3, (0, 1, -4), rt.cmp(3, ">", 0.0, 1.0, 0)),
        lambda rt: rt.resolve(3, (0, 1, -5), rt.cmp(3, ">", 0.0, 1.0, 0) or rt.cmp(3, ">", -1.0, 1.0, 1)),
        # Composition programs: nested trees, negation, promoted leaves.
        lambda rt: rt.resolve(
            3, (0, 1, -4), rt.cmp(3, ">", 0.0, 1.0, 0) and rt.cmp(3, ">", 2.0, 1.0, 1)
        ),
        lambda rt: rt.resolve(
            2,
            (0, 1, 2, -4, -5),
            rt.cmp(2, "<", 3.0, 1.0, 0)
            or (rt.cmp(2, "==", 1.0, 1.0, 1) and rt.cmp(2, "<=", 2.0, 5.0, 2)),
        ),
        lambda rt: rt.resolve(
            2,
            (0, 1, 2, -4, -5),
            rt.cmp(2, "<", 0.0, 1.0, 0)  # true: the and-side short-circuits away
            or (rt.cmp(2, "==", 1.0, 1.0, 1) and rt.cmp(2, "<=", 2.0, 5.0, 2)),
        ),
        lambda rt: rt.resolve(1, (0, -1), rt.tleaf(1, 0, 2.5, True)),
        lambda rt: rt.resolve(1, (0, 1, -5), rt.tleaf(1, 0, 0.0) or rt.cmp(1, ">", 4.0, 1.0, 1)),
        lambda rt: rt.resolve(1, (0, 1, -4), rt.tleaf(1, 0, "opaque") and rt.cmp(1, ">", 4.0, 1.0, 1)),
        # Ternary shape: the condition leaf 0 is referenced on both sides.
        lambda rt: rt.resolve(
            0,
            (0, 1, -4, 0, -1, 2, -4, -5),
            rt.cmp(0, ">", 2.0, 5.0, 1) if rt.cmp(0, ">", 1.0, 0.0, 0) else rt.cmp(0, "<", 1.0, 0.0, 2),
        ),
        lambda rt: rt.resolve(0, (0, 1, -4), rt.cmp(0, "!=", float("nan"), 1.0, 0) and rt.cmp(0, "<", 1.0, 2.0, 1)),
    ]

    @pytest.mark.parametrize("script_index", range(len(SCRIPTS)))
    def test_r_and_coverage_match_reference(self, script_index):
        script = self.SCRIPTS[script_index]
        all_branches = [BranchId(c, o) for c in range(4) for o in (False, True)]
        # Saturation states: empty, everything, and one-sided per conditional.
        states = [frozenset(), frozenset(all_branches)]
        for c in range(4):
            states.append(frozenset({BranchId(c, True)}))
            states.append(frozenset({BranchId(c, False)}))
        for saturated in states:
            expected = _reference_r(saturated, script)
            got = _fast_r(saturated, script)
            assert got == expected, f"saturated={set(saturated)}"

    def test_last_conditional_tracking(self):
        rt = FastRuntime(4)
        rt.begin()
        assert rt.last_conditional is None and rt.last_outcome is None
        rt.test(2, "<", 1.0, 2.0)
        assert rt.last_conditional == 2 and rt.last_outcome is True
        rt.truth(0, None)
        assert rt.last_conditional == 0 and rt.last_outcome is False

    def test_begin_resets_coverage_and_mask(self):
        rt = FastRuntime(2, saturated_mask=branch_mask({BranchId(0, True)}))
        rt.begin()
        rt.test(0, "<", 1.0, 2.0)
        assert rt.covered_branches() == {BranchId(0, True)}
        rt.begin(saturated_mask=0)
        assert rt.covered_branches() == frozenset()
        assert rt.saturated_mask == 0
        assert rt.r == 1.0
        assert rt.total_evaluations == 2

    def test_snapshot(self):
        rt = FastRuntime(2)
        rt.begin()
        rt.test(1, ">", 2.0, 1.0)
        snap = rt.snapshot()
        assert snap.covered == {BranchId(1, True)}
        assert snap.last_conditional == 1
        assert snap.last_outcome is True
        assert snap.covered_mask() == branch_mask({BranchId(1, True)})


class TestCompositionPrograms:
    """The postfix tree composition shared by both runtimes."""

    def test_nested_or_of_and(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        # false or (true and false): composed d_true = min(or-children t).
        outcome = rt.cmp(0, ">", 0.0, 1.0, 0) or (
            rt.cmp(0, ">", 2.0, 1.0, 1) and rt.cmp(0, ">", 0.5, 1.0, 2)
        )
        assert rt.resolve(0, (0, 1, 2, -4, -5), outcome) is False
        _, d_true, d_false, _, _ = policy.calls[0]
        # and-node: (0 + (0.25 + eps), min(eps-ish...)) ; or of that and leaf0.
        assert d_true == pytest.approx(0.25 + DEFAULT_EPSILON)
        assert d_false == 0.0

    def test_not_token_swaps_pair(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        outcome = not rt.cmp(0, ">", 0.0, 1.0, 0)
        assert rt.resolve(0, (0, -1), outcome) is True
        _, d_true, d_false, _, _ = policy.calls[0]
        assert d_true == 0.0
        assert d_false == pytest.approx(1.0 + DEFAULT_EPSILON)

    def test_unevaluated_leaves_contribute_nothing(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        outcome = rt.cmp(0, "<", 0.0, 1.0, 0) or (
            rt.cmp(0, ">", 2.0, 1.0, 1) and rt.cmp(0, ">", 0.5, 1.0, 2)
        )
        assert rt.resolve(0, (0, 1, 2, -4, -5), outcome) is True
        _, d_true, d_false, _, _ = policy.calls[0]
        assert d_true == 0.0
        assert d_false == pytest.approx(1.0 + DEFAULT_EPSILON)

    def test_all_leaves_unusable_keeps_r(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        rt.resolve(0, (0, 1, -4), rt.tleaf(0, 0, "a") and rt.tleaf(0, 1, [1]))
        assert policy.calls == []
        assert rt.r == 1.0
        assert BranchId(0, True) in rt.record.covered

    def test_malformed_program_rejected(self):
        rt = Runtime()
        rt.begin()
        rt.cmp(0, "<", 1.0, 2.0, 0)
        with pytest.raises(ValueError, match="malformed composition program"):
            rt.resolve(0, (0, 0, -4, -4), True)

    def test_fast_runtime_loop_iterations_do_not_leak_leaves(self):
        """A short-circuited later iteration must not reuse iteration-1 leaves."""
        for runtime in (
            Runtime(policy=ConstantPolicy()),
            FastRuntime(4),
        ):
            runtime.begin()
            # Iteration 1: both leaves evaluated (leaf 1 distance stashed).
            runtime.resolve(
                0, (0, 1, -5), runtime.cmp(0, ">", 2.0, 1.0, 0) or runtime.cmp(0, ">", 0.0, 1.0, 1)
            )
            # Iteration 2: leaf 0 true, leaf 1 short-circuited away.
            runtime.resolve(0, (0, 1, -5), runtime.cmp(0, ">", 3.0, 1.0, 0) or True)
        # Equivalence of the two runtimes on exactly this scenario:
        saturated = frozenset({BranchId(0, False)})

        def script(rt):
            rt.resolve(0, (0, 1, -5), rt.cmp(0, ">", 0.0, 1.0, 0) or rt.cmp(0, ">", 0.5, 1.0, 1))
            rt.resolve(0, (0, 1, -5), rt.cmp(0, ">", 3.0, 1.0, 0) or True)

        assert _fast_r(saturated, script) == _reference_r(saturated, script)

    def test_fast_runtime_stale_execution_leaves_invalidated(self):
        """Leaves stashed in a crashed execution never leak into the next one."""
        fast = FastRuntime(2)
        fast.begin()
        fast.cmp(0, ">", 5.0, 1.0, 0)  # execution "crashes" before resolve
        fast.begin()
        # Same conditional, no leaves evaluated this time: composing must see
        # nothing usable and keep r (mask: only false branch saturated).
        fast.saturated_mask = branch_mask({BranchId(0, False)})
        fast.resolve(0, (0, 1, -5), False)
        assert fast.r == 1.0


class TestTleafPromotion:
    def test_numeric_leaf_promotes_to_nonzero_distance(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        assert rt.tleaf(0, 0, 3.0) is True
        rt.resolve(0, (0,), True)
        _, d_true, d_false, _, _ = policy.calls[0]
        assert d_true == 0.0
        assert d_false > 0.0

    def test_negated_leaf_swaps_outcome_and_distances(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        assert rt.tleaf(0, 0, 3.0, True) is False
        rt.resolve(0, (0,), False)
        _, d_true, d_false, _, _ = policy.calls[0]
        assert d_true == pytest.approx(9.0)  # distance to ``3.0 == 0``
        assert d_false == 0.0

    def test_bool_leaf_uses_epsilon_distances(self):
        policy = ConstantPolicy()
        rt = Runtime(policy=policy)
        rt.begin()
        assert rt.tleaf(0, 0, False) is False
        rt.resolve(0, (0,), False)
        _, d_true, d_false, _, _ = policy.calls[0]
        assert d_true == DEFAULT_EPSILON
        assert d_false == 0.0

    def test_huge_int_leaf_is_unusable(self):
        rt = Runtime(policy=ConstantPolicy())
        rt.begin()
        assert rt.tleaf(0, 0, 10**400) is True
        rt.resolve(0, (0,), True)
        assert rt.policy.calls == []


class TestExecutionRecord:
    def test_last_and_conditionals_executed(self):
        record = ExecutionRecord()
        assert record.last is None
        record.register(ConditionalOutcome(0, True, 0.0, 1.0))
        record.register(ConditionalOutcome(2, False, 3.0, 0.0))
        assert record.last.conditional == 2
        assert record.conditionals_executed() == {0, 2}
        assert record.covered == {BranchId(0, True), BranchId(2, False)}


class TestRuntimeHandle:
    def test_requires_installation(self):
        handle = RuntimeHandle()
        with pytest.raises(RuntimeError):
            handle.cmp(0, "<", 1.0, 2.0, 0)

    def test_forwards_to_installed_runtime(self):
        handle = RuntimeHandle()
        rt = Runtime()
        handle.install(rt)
        rt.begin()
        assert handle.resolve(0, (0,), handle.cmp(0, "<", 1.0, 2.0, 0)) is True
        assert BranchId(0, True) in rt.record.covered
