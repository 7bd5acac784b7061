"""Tests for saturation tracking (Def. 3.2, Lemma 3.3)."""

from __future__ import annotations

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.core.saturation import SaturationTracker
from repro.experiments.runner import instrument_case
from repro.fdlibm.suite import BENCHMARKS
from repro.instrument.program import instrument
from repro.instrument.runtime import BranchId, Runtime, branch_mask
from tests import sample_programs as sp


def record_for(program, args):
    _, _, record = program.run(args, runtime=Runtime())
    return record


class TestPaperScenario:
    """The walk-through of Def. 3.2: covering {0T, 0F, 1F} saturates {0F, 1F}."""

    def test_partial_coverage_partial_saturation(self, nested_program):
        tracker = SaturationTracker(nested_program)
        # Program: if x>0: (if y>0: 1 else 2)  else: (if y==5: 3 else 4)
        tracker.add_covered({BranchId(0, True), BranchId(0, False), BranchId(1, False)})
        # 1F has no descendants -> saturated; 0T's descendant 1T is uncovered.
        assert BranchId(1, False) in tracker.saturated
        assert BranchId(0, True) not in tracker.saturated
        # 0F's descendants (conditional 2) are uncovered either.
        assert BranchId(0, False) not in tracker.saturated

    def test_full_coverage_saturates_everything(self, nested_program):
        tracker = SaturationTracker(nested_program)
        for args in [(1.0, 1.0), (1.0, -1.0), (-1.0, 5.0), (-1.0, 0.0)]:
            tracker.add_execution(record_for(nested_program, args))
        assert tracker.all_covered()
        assert tracker.all_saturated()
        assert tracker.branch_coverage() == 1.0


class TestIncrementalUpdates:
    def test_add_execution_returns_new_branches(self, paper_foo_program):
        tracker = SaturationTracker(paper_foo_program)
        new = tracker.add_execution(record_for(paper_foo_program, (0.7,)))
        assert new == {BranchId(0, True), BranchId(1, False)}
        again = tracker.add_execution(record_for(paper_foo_program, (0.7,)))
        assert again == set()

    def test_coverage_fraction(self, paper_foo_program):
        tracker = SaturationTracker(paper_foo_program)
        tracker.add_execution(record_for(paper_foo_program, (0.7,)))
        assert tracker.branch_coverage() == 0.5
        assert tracker.n_covered == 2
        assert tracker.uncovered() == frozenset({BranchId(0, False), BranchId(1, True)})

    def test_lemma_3_3_saturation_iff_coverage(self, paper_foo_program):
        """Saturating all branches is equivalent to covering all branches."""
        tracker = SaturationTracker(paper_foo_program)
        for x in (0.7, 1.0, 1.1, -5.2):
            tracker.add_execution(record_for(paper_foo_program, (x,)))
        assert tracker.all_covered() == tracker.all_saturated()
        assert tracker.all_saturated()


class TestInfeasibleMarks:
    def test_infeasible_counts_for_saturation_not_coverage(self, paper_foo_program):
        tracker = SaturationTracker(paper_foo_program)
        tracker.add_execution(record_for(paper_foo_program, (0.7,)))
        tracker.add_execution(record_for(paper_foo_program, (5.0,)))
        # Only 1T remains; pretend the heuristic deems it infeasible.
        assert not tracker.all_saturated()
        tracker.mark_infeasible(BranchId(1, True))
        assert tracker.all_saturated()
        assert not tracker.all_covered()
        assert tracker.branch_coverage() == 0.75

    def test_marking_twice_is_idempotent(self, paper_foo_program):
        tracker = SaturationTracker(paper_foo_program)
        tracker.mark_infeasible(BranchId(1, True))
        tracker.mark_infeasible(BranchId(1, True))
        assert tracker.infeasible == {BranchId(1, True)}


def _oracle_saturated(program, covered, infeasible):
    """Def. 3.2 over ``BranchId`` sets: the tracker's former recompute."""
    effective = covered | infeasible
    saturated = set(infeasible)
    for branch in effective:
        if program.descendant_branches(branch) <= effective:
            saturated.add(branch)
    return frozenset(saturated)


_SAMPLES = (sp.single_branch, sp.paper_foo, sp.nested_branches, sp.early_return,
            sp.loop_program, sp.equality_chain, sp.nested_boolean, sp.while_else_loop,
            sp.infeasible_inner, sp.demorgan, sp.mixed_leaves, sp.three_dimensional)


@lru_cache(maxsize=None)
def _programs():
    suite = [instrument_case(case) for case in BENCHMARKS]
    return tuple(suite) + tuple(instrument(target) for target in _SAMPLES)


class TestMaskTrackerAgainstDef32:
    """The mask tracker agrees with the set-based Def. 3.2 formula."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_subsets_agree_with_the_oracle(self, data):
        program = data.draw(st.sampled_from(_programs()), label="program")
        branches = sorted(program.all_branches, key=lambda b: b.bit)
        covered = frozenset(data.draw(st.sets(st.sampled_from(branches)), label="covered"))
        infeasible = frozenset(data.draw(st.sets(st.sampled_from(branches)), label="infeasible"))
        oracle = _oracle_saturated(program, covered, infeasible)

        built = SaturationTracker(program, covered=covered, infeasible=infeasible)
        grown = SaturationTracker(program)
        ordered = sorted(covered, key=lambda b: b.bit)
        grown.add_covered(set(ordered[::2]))
        grown.add_covered_mask(branch_mask(ordered[1::2]))
        for branch in infeasible:
            grown.mark_infeasible(branch)
        from_masks = SaturationTracker.from_masks(
            program, branch_mask(covered), branch_mask(infeasible))
        for tracker in (built, grown, from_masks):
            assert tracker.saturated == oracle, program.name
            assert tracker.saturated_mask == branch_mask(oracle), program.name
            assert tracker.all_saturated() == (len(oracle) >= program.n_branches)
            assert tracker.n_covered == len(covered & program.all_branches)
            assert tracker.uncovered() == program.all_branches - covered
            assert tracker.covered == covered and tracker.infeasible == infeasible

    def test_saturating_everything_is_covering_everything(self):
        """Lemma 3.3 on every suite program and sample."""
        for program in _programs():
            tracker = SaturationTracker(program)
            tracker.add_covered(set(program.all_branches))
            assert tracker.all_saturated() and tracker.all_covered(), program.name
            assert tracker.saturated == _oracle_saturated(
                program, program.all_branches, frozenset()), program.name
