"""Smoke tests for the experiment harnesses (tables and figures)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import figure2, figure5, table1, table2, table3, table4, table5
from repro.experiments.runner import (
    PROFILES,
    CoverMeTool,
    Profile,
    compare_tools,
    coverme_tool,
    format_table,
    mean,
)
from repro.fdlibm.suite import BENCHMARKS
from repro.instrument.runtime import EXECUTION_PROFILES

TINY_PROFILE = Profile(
    name="tiny",
    n_start=6,
    n_iter=2,
    max_cases=2,
    coverme_time_budget=1.0,
    baseline_execution_factor=1,
    baseline_min_executions=300,
)


class TestProfiles:
    def test_registered_profiles(self):
        assert set(PROFILES) == {"smoke", "default", "full"}
        assert PROFILES["full"].n_start == 500  # the paper's setting

    def test_profile_builds_config(self):
        config = PROFILES["smoke"].coverme_config()
        assert config.local_minimizer == "powell"

    #: Job keys of the first suite case under each shipped profile.  They
    #: moved once when ``Profile.start_strategy`` and ten search knobs left
    #: the profile and ``CoverMeConfig`` fingerprints (every knob had sat at
    #: its default in every run, so no result changed).  A change that
    #: alters what a job computes must move the CoverMe key on purpose and
    #: pin the new value here.
    RAND_KEYS = {
        "default": "9eeb0f3498b1539f5bb1fe781fea08d8805dad0c0769a7448e0ba4421a96b0eb",
        "full": "32ca79edb35bd41ce6f398fd6ca049f32d882beab975150ba405f723520ffc09",
        "smoke": "0c84a878867af92078651117484824ecb192919e1898cfbbd42ba8fb7e1e4a3d",
    }
    COVERME_KEYS = {
        "default": "1604ddfe18125667d299ef2de09894ed8b6dc01d564b5427bd7a15239936bf77",
        "full": "ca82aaf2bff36bc95c66920856c02612584e70a2ce99de0f2ceaf5d71a95a0c8",
        "smoke": "08d52ca84b592758ef2192b195c2b9ef9af6bc883fa11edafd2da572f8a9ba14",
    }

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_shipped_profiles_run_native_under_pinned_job_keys(self, name):
        from repro.service.jobs import JobRequest, build_job_key, derive_budget

        profile = PROFILES[name]
        config = profile.coverme_config()
        assert config.eval_profile == "penalty-native"
        request = JobRequest(case=BENCHMARKS[0], tool="CoverMe", profile=profile)
        keys = [
            build_job_key(
                request, derive_budget(request),
                tool=CoverMeTool(dataclasses.replace(config, eval_profile=tier)),
            ).fingerprint()
            for tier in EXECUTION_PROFILES
        ]
        assert keys == [build_job_key(request, derive_budget(request)).fingerprint()] * 3
        assert keys[0] == self.COVERME_KEYS[name]
        rand = JobRequest(case=BENCHMARKS[0], tool="Rand", profile=profile)
        assert build_job_key(rand, derive_budget(rand)).fingerprint() == self.RAND_KEYS[name]


class TestRunnerInfrastructure:
    def test_compare_tools_produces_rows(self):
        rows = table2.run(TINY_PROFILE, cases=BENCHMARKS[:2])
        assert len(rows) == 2
        for row in rows:
            assert set(row.results) == {"CoverMe", "Rand", "AFL"}
            for tool in row.results:
                assert 0.0 <= row.coverage(tool) <= 100.0

    def test_format_table_contains_means(self):
        rows = table2.run(TINY_PROFILE, cases=BENCHMARKS[:1])
        text = format_table(rows, ("Rand", "AFL", "CoverMe"), title="demo")
        assert "MEAN" in text
        assert "demo" in text

    def test_mean_ignores_nan(self):
        assert mean([1.0, float("nan"), 3.0]) == 2.0

    def test_coverme_tool_adapter(self):
        tool = coverme_tool(TINY_PROFILE)
        assert tool.name == "CoverMe"


class TestTable1:
    def test_scenario_reaches_full_saturation(self):
        steps = table1.run(n_start=40, seed=0)
        assert steps
        final = steps[-1]
        # All four branches of the example eventually saturate.
        assert len(final.saturated) == 4

    def test_representing_function_initially_zero(self):
        values = table1.representing_function_values([-3.0, 0.7, 2.0, 10.0])
        assert values == [0.0, 0.0, 0.0, 0.0]


class TestFigure2:
    def test_objectives_match_paper(self):
        assert figure2.figure2a_objective(0.5) == 0.0
        assert figure2.figure2a_objective(3.0) == pytest.approx(4.0)
        assert figure2.figure2b_objective(-3.0) == 0.0
        assert figure2.figure2b_objective(2.0) == 0.0

    def test_basinhopping_beats_local_from_bad_start(self):
        results = figure2.run(seed=1)
        bh = [r for r in results if r.method == "basinhopping" and r.start == 6.0]
        assert bh and bh[0].minimum_value == pytest.approx(0.0, abs=1e-6)


class TestTables2To5:
    def test_table2_summary_keys(self):
        rows = table2.run(TINY_PROFILE, cases=BENCHMARKS[:1])
        summary = table2.summarize(rows)
        assert set(summary) >= {"Rand", "AFL", "CoverMe", "improvement_vs_rand"}

    def test_table3_summary_speedup(self):
        rows = table3.run(TINY_PROFILE, cases=BENCHMARKS[:1])
        summary = table3.summarize(rows)
        assert summary["speedup"] > 0.0
        assert "coverage_improvement" in summary

    def test_table4_matches_registry(self):
        groups = table4.run()
        assert sum(len(items) for items in groups.values()) == 52

    def test_table5_line_coverage(self):
        rows = table5.run(TINY_PROFILE, cases=BENCHMARKS[:1])
        for tool in ("Rand", "AFL", "CoverMe"):
            value = table5.line_percent(rows[0], tool)
            assert 0.0 <= value <= 100.0

    def test_figure5_series_align_with_rows(self):
        rows = table2.run(TINY_PROFILE, cases=BENCHMARKS[:2])
        series = figure5.series_from_rows(rows)
        assert {s.tool for s in series} == {"Rand", "AFL", "CoverMe"}
        assert all(len(s.values) == 2 for s in series)
        art = figure5.render_ascii(series)
        assert "Figure 5" in art
