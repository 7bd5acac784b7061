"""End-to-end tests of the CoverMe driver (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core.config import CoverMeConfig
from repro.core.coverme import CoverMe, cover
from repro.engine.core import DEFAULT_BATCH_SIZE
from repro.instrument.program import instrument
from repro.instrument.runtime import BranchId
from tests import sample_programs as sp


class TestFullCoverage:
    def test_single_branch_program(self):
        result = cover(sp.single_branch, CoverMeConfig(n_start=20, seed=0))
        assert result.branch_coverage == 1.0
        assert result.fully_covered
        assert len(result.inputs) >= 2

    def test_paper_example(self):
        result = cover(sp.paper_foo, CoverMeConfig(n_start=40, seed=1))
        assert result.branch_coverage == 1.0
        # The equality branch requires x*x == 4 exactly (x in {-3, 1, 2} before increment).
        assert any(sp.paper_foo(x[0]) == 1 for x in result.inputs)

    def test_nested_branches_two_inputs(self):
        result = cover(sp.nested_branches, CoverMeConfig(n_start=60, seed=2))
        assert result.branch_coverage == 1.0

    def test_equality_chain_hits_exact_constants(self):
        result = cover(sp.equality_chain, CoverMeConfig(n_start=60, seed=3))
        assert result.branch_coverage == 1.0
        inputs = {x[0] for x in result.inputs}
        assert 1024.0 in inputs
        assert -0.0078125 in inputs

    def test_boolean_conditions_extension(self):
        result = cover(sp.boolean_condition, CoverMeConfig(n_start=80, seed=4))
        assert result.branch_coverage >= 0.75

    def test_loop_program(self):
        result = cover(sp.loop_program, CoverMeConfig(n_start=60, seed=5))
        assert result.branch_coverage >= 0.75

    def test_helper_function_instrumentation(self):
        coverme = CoverMe(
            sp.calls_helper,
            CoverMeConfig(n_start=30, seed=6),
            extra_functions=[sp.helper_goo],
        )
        result = coverme.run()
        assert result.n_branches == 2
        assert result.branch_coverage == 1.0

    def test_accepts_prebuilt_program(self):
        program = instrument(sp.single_branch)
        result = CoverMe(program, CoverMeConfig(n_start=10, seed=7)).run()
        assert result.program == "single_branch"
        assert result.branch_coverage == 1.0


class TestEarlyTermination:
    def test_stops_before_exhausting_starts_when_saturated(self):
        result = cover(sp.single_branch, CoverMeConfig(n_start=500, seed=8))
        assert result.n_starts_used < 500

    def test_respects_max_evaluations(self):
        config = CoverMeConfig(n_start=200, seed=9, max_evaluations=50)
        result = cover(sp.equality_chain, config)
        # The budget is checked between reduction steps, so it may be overshot
        # by at most one batch of trivially-cheap starts plus one real launch.
        assert result.n_starts_used <= DEFAULT_BATCH_SIZE + 1
        assert result.n_starts_used < config.n_start

    def test_respects_time_budget(self):
        config = CoverMeConfig(n_start=10000, seed=10, time_budget=0.2)
        result = cover(sp.equality_chain, config)
        assert result.wall_time < 5.0


class TestInfeasibleHeuristic:
    def test_infeasible_branch_detected_and_excluded_from_coverage(self):
        config = CoverMeConfig(n_start=60, seed=11)
        result = cover(sp.infeasible_inner, config)
        # The branch y == -1 can never be taken; everything else is covered.
        assert BranchId(1, True) not in result.covered
        assert result.branch_coverage == pytest.approx(0.75)
        assert BranchId(1, True) in result.infeasible

    def test_heuristic_can_be_disabled(self):
        config = CoverMeConfig(n_start=15, seed=12, mark_infeasible=False)
        result = cover(sp.infeasible_inner, config)
        assert result.infeasible == frozenset()


class TestBackendsAndMinimizers:
    @pytest.mark.parametrize("local_minimizer", ["powell"])
    def test_local_minimizer_choices(self, local_minimizer):
        config = CoverMeConfig(n_start=30, seed=13, local_minimizer=local_minimizer)
        result = cover(sp.paper_foo, config)
        assert result.branch_coverage >= 0.75


class TestResultRecord:
    def test_traces_and_report(self):
        result = cover(sp.paper_foo, CoverMeConfig(n_start=40, seed=15))
        assert result.n_starts_used == len(result.traces)
        accepted = [t for t in result.traces if t.accepted]
        assert len(accepted) == len(result.inputs)
        report = result.coverage_report()
        assert report.branch_percent == result.branch_coverage_percent
        assert result.evaluations > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoverMeConfig(n_start=0)
        with pytest.raises(TypeError, match="backend"):
            CoverMeConfig(backend="magic")
        with pytest.raises(TypeError, match="epsilon"):
            CoverMeConfig(epsilon=-1.0)

    def test_paper_and_smoke_profiles(self):
        assert CoverMeConfig.paper().n_start == 500
        assert CoverMeConfig.smoke().n_start < 100
