"""Tests for the resumable experiment pipeline, its CLI, and the satellites.

The profile used here disables the CoverMe wall-clock budget so every tool's
output (coverage, executions, kept inputs) is a deterministic function of the
seed -- which is what lets the resume tests assert *byte-identical* rendered
artifacts across cold, warm and interrupted-then-resumed runs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.report import ToolRunSummary
from repro.experiments import runner, table2
from repro.experiments.pipeline import (
    ExperimentSpec,
    PipelineStats,
    execute_plan,
    get_spec,
    plan_jobs,
    profile_fingerprint,
    run_specs,
)
from repro.experiments.runner import PROFILES, Profile, instrument_case
from repro.fdlibm.suite import BENCHMARKS, DEFAULT_INPUT_BOUND, get_case
from repro.store import RunStore, canonical_json

#: Deterministic profile: no wall-clock budgets, so coverage and execution
#: counts depend only on the seed and byte-identical re-rendering is exact.
DET_PROFILE = Profile(
    name="det-tiny",
    n_start=6,
    n_iter=2,
    max_cases=2,
    coverme_time_budget=None,
    baseline_execution_factor=1,
    baseline_min_executions=200,
    seed=0,
)


def _normalized_records(runs_path) -> list[str]:
    """Canonical ``runs.jsonl`` record lines with the one wall-clock field
    zeroed, sorted by content.

    ``wall_time`` is the single stored field that depends on the clock
    rather than the seed; append order depends on scheduling.  Everything
    else must be byte-identical across entry points, worker modes and
    shard counts, which is exactly what comparing these lists asserts.
    """
    import json

    lines = []
    for line in runs_path.read_text().splitlines():
        record = json.loads(line)
        record["payload"]["summary"]["wall_time"] = 0.0
        lines.append(canonical_json(record))
    return sorted(lines)


class TestPlanning:
    def test_plan_dedups_shared_jobs_across_specs(self):
        specs = [get_spec("table2"), get_spec("table5"), get_spec("figure5")]
        plan = plan_jobs(specs, DET_PROFILE)
        # Three specs share the same three tools over the same cases: each
        # (case, tool) pair appears exactly once in the plan.
        assert plan.n_jobs == len(plan.cases) * 3
        for case in plan.cases:
            jobs = plan.jobs_by_case[case.key]
            assert [job.tool for job in jobs][0] == "CoverMe"
            assert len({job.tool for job in jobs}) == len(jobs)
            # Table 5 needs line coverage, so the merged jobs measure lines.
            assert all(job.measure_lines for job in jobs)

    def test_plan_without_line_spec_skips_line_measurement(self):
        plan = plan_jobs([get_spec("table2")], DET_PROFILE)
        assert all(not job.measure_lines for job in plan.jobs())

    def test_profile_fingerprint_ignores_result_neutral_fields(self):
        assert profile_fingerprint(DET_PROFILE) == profile_fingerprint(
            dataclasses.replace(DET_PROFILE, max_cases=40, n_workers=8)
        )
        assert profile_fingerprint(DET_PROFILE) != profile_fingerprint(
            dataclasses.replace(DET_PROFILE, n_start=7)
        )


class TestResumableExecution:
    def test_warm_store_executes_nothing_and_renders_identically(self, tmp_path):
        root = tmp_path / "store"
        with RunStore(root) as store:
            cold = run_specs([get_spec("table2")], DET_PROFILE, store=store)
        assert cold.stats.executed == cold.stats.total == 6
        assert cold.stats.loaded == 0
        # Reload the store from disk to prove persistence, not memory reuse.
        with RunStore(root) as store:
            warm = run_specs([get_spec("table2")], DET_PROFILE, store=store)
        assert warm.stats.executed == 0
        assert warm.stats.loaded == warm.stats.total == 6
        assert warm.rendered["table2"] == cold.rendered["table2"]

    def test_combined_run_executes_each_shared_pair_once(self, tmp_path):
        specs = [get_spec("table2"), get_spec("table5"), get_spec("figure5")]
        with RunStore(tmp_path / "store") as store:
            report = run_specs(specs, DET_PROFILE, store=store)
            # 2 cases x 3 tools, not x3 specs.
            assert report.stats.total == 6
            assert report.stats.executed == 6
            assert set(report.rendered) == {"table2", "table5", "figure5"}
            # A later table2-only run is satisfied by the line-measuring records.
            warm = run_specs([get_spec("table2")], DET_PROFILE, store=store)
        assert warm.stats.executed == 0

    def test_interrupted_run_resumes_without_repeating_completed_jobs(self, tmp_path):
        root = tmp_path / "store"
        profile = dataclasses.replace(DET_PROFILE, max_cases=1)

        class KillAfter:
            """Store wrapper that dies before checkpointing the Nth record."""

            def __init__(self, store, allowed):
                self._store = store
                self._allowed = allowed

            def __getattr__(self, name):
                return getattr(self._store, name)

            def put(self, key, payload):
                if self._allowed == 0:
                    raise KeyboardInterrupt
                self._allowed -= 1
                self._store.put(key, payload)

        with RunStore(root) as store:
            with pytest.raises(KeyboardInterrupt):
                run_specs([get_spec("table2")], profile, store=KillAfter(store, 2))
        with RunStore(root) as store:
            assert len(store) == 2  # CoverMe + Rand checkpointed before the kill
            resumed = run_specs([get_spec("table2")], profile, store=store)
        assert resumed.stats.loaded == 2
        assert resumed.stats.executed == 1  # only the job the kill preempted
        # The resumed artifact is byte-identical to an uninterrupted run.
        with RunStore(tmp_path / "fresh") as store:
            fresh = run_specs([get_spec("table2")], profile, store=store)
        assert resumed.rendered["table2"] == fresh.rendered["table2"]

    def test_fresh_run_ignores_cached_records(self, tmp_path):
        with RunStore(tmp_path / "store") as store:
            run_specs([get_spec("table2")], DET_PROFILE, store=store)
            fresh = run_specs([get_spec("table2")], DET_PROFILE, store=store, resume=False)
        assert fresh.stats.executed == fresh.stats.total

    def test_render_gates_specs_individually(self, tmp_path):
        """A sibling spec's absent jobs must not suppress a complete spec."""
        with RunStore(tmp_path / "store") as store:
            run_specs([get_spec("table2")], DET_PROFILE, store=store)  # branch-only records
            report = run_specs(
                [get_spec("table2"), get_spec("table5")],
                DET_PROFILE,
                store=store,
                execute=False,
            )
        # table5 needs line-measuring records, which a branch-only store
        # cannot satisfy -- but table2's own records all resolved.
        assert report.missing_jobs
        assert "table2" in report.rendered
        assert "table5" not in report.rendered

    def test_render_mode_reports_missing_jobs_instead_of_executing(self, tmp_path):
        with RunStore(tmp_path / "store") as store:
            report = run_specs([get_spec("table2")], DET_PROFILE, store=store, execute=False)
        assert report.stats.executed == 0
        # Without a CoverMe record the baselines' budgets are underivable,
        # so every job of every case is missing.
        assert len(report.missing_jobs) == report.stats.missing > 0
        assert "table2" not in report.rendered

    def test_process_dispatch_checkpoints_into_persistent_store(self, tmp_path):
        """Process-mode dispatch into a persistent store works (service
        workers execute, the coordinating process writes) and its records
        match thread-mode records byte-for-byte, wall time aside."""
        plan = plan_jobs([get_spec("table2")], DET_PROFILE)
        with RunStore(tmp_path / "process-store") as store:
            _, stats, _ = execute_plan(plan, store=store, n_workers=2, worker_mode="process")
            assert stats.executed == stats.total > 0
        with RunStore(tmp_path / "thread-store") as store:
            execute_plan(plan, store=store, n_workers=2, worker_mode="thread")
        process_lines = _normalized_records(tmp_path / "process-store" / "runs.jsonl")
        thread_lines = _normalized_records(tmp_path / "thread-store" / "runs.jsonl")
        assert process_lines == thread_lines
        # Resuming from the process-written store loads everything.
        with RunStore(tmp_path / "process-store") as store:
            _, stats, _ = execute_plan(plan, store=store, n_workers=2, worker_mode="process")
            assert stats.executed == 0 and stats.loaded == stats.total

    def test_changing_seed_invalidates_cached_jobs(self, tmp_path):
        profile = dataclasses.replace(DET_PROFILE, max_cases=1)
        with RunStore(tmp_path / "store") as store:
            run_specs([get_spec("table2")], profile, store=store)
            reseeded = run_specs(
                [get_spec("table2")], dataclasses.replace(profile, seed=7), store=store
            )
        assert reseeded.stats.executed == reseeded.stats.total

    def test_legacy_compare_tools_accepts_store(self, tmp_path):
        factories = table2.tool_factories()
        with RunStore(tmp_path / "store") as store:
            first = runner.compare_tools(
                factories, DET_PROFILE, cases=BENCHMARKS[:1], store=store
            )
            second = runner.compare_tools(
                factories, DET_PROFILE, cases=BENCHMARKS[:1], store=store
            )
        assert [row.coverage("CoverMe") for row in first] == [
            row.coverage("CoverMe") for row in second
        ]
        # The warm pass loaded everything: identical summaries, same objects' wall times.
        assert first[0].results["Rand"].wall_time == second[0].results["Rand"].wall_time


class TestScriptSpecs:
    def test_script_specs_render_without_jobs(self):
        report = run_specs(
            [get_spec("table4"), get_spec("figure2")],
            DET_PROFILE,
            store=RunStore(None),
        )
        assert report.stats.total == 0
        assert "Table 4" in report.rendered["table4"]
        assert "Figure 2" in report.rendered["figure2"]

    def test_script_specs_not_executed_in_render_mode(self):
        calls = []
        spy = ExperimentSpec(
            name="spy", title="spy", script=lambda profile: calls.append(1) or "artifact"
        )
        report = run_specs([spy], DET_PROFILE, store=RunStore(None), execute=False)
        assert calls == []
        assert "spy" not in report.rendered
        assert report.missing_jobs == ["spy (script spec; requires `repro run`)"]

    def test_spec_without_tools_or_script_rejected(self):
        bogus = ExperimentSpec(name="bogus", title="bogus")
        with pytest.raises(ValueError, match="neither tools nor a script"):
            run_specs([bogus], DET_PROFILE)


class TestCli:
    @pytest.fixture(autouse=True)
    def det_profile(self, monkeypatch):
        monkeypatch.setitem(PROFILES, "det-tiny", dataclasses.replace(DET_PROFILE, max_cases=1))

    def test_run_render_ls_clean_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        out = str(tmp_path / "arts")
        assert main(["run", "table2", "--profile", "det-tiny", "--store", store, "--out", out]) == 0
        cold = capsys.readouterr().out
        assert "Table 2 reproduction" in cold
        assert "3 executed, 0 loaded" in cold

        assert main(["run", "table2", "--profile", "det-tiny", "--store", store]) == 0
        warm = capsys.readouterr().out
        assert "0 executed, 3 loaded" in warm
        # Byte-identical artifact files across cold and warm runs.
        artifact = (tmp_path / "arts" / "table2_det-tiny.txt").read_text()
        assert artifact.strip() in cold
        assert artifact.strip() in warm

        assert main(["render", "table2", "--profile", "det-tiny", "--store", store]) == 0
        rendered = capsys.readouterr().out
        assert artifact.strip() in rendered

        assert main(["ls", "--store", store]) == 0
        listing = capsys.readouterr().out
        assert "3 records" in listing
        assert "CoverMe" in listing

        assert main(["clean", "--store", store]) == 0
        assert "dropped 3 records" in capsys.readouterr().out
        assert main(["ls", "--store", store]) == 0
        assert "empty" in capsys.readouterr().out

    def test_render_fails_on_missing_store_without_creating_it(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "s"
        rc = main(["render", "table2", "--profile", "det-tiny", "--store", str(target)])
        assert rc == 1
        assert "does not exist" in capsys.readouterr().err
        assert not target.exists()  # read-only commands must not create stores

    def test_render_fails_on_empty_store(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "s"
        target.mkdir()  # existing directory, no records
        rc = main(["render", "table2", "--profile", "det-tiny", "--store", str(target)])
        assert rc == 1
        assert "missing from store" in capsys.readouterr().err
        # Render is read-only even against an existing directory.
        assert list(target.iterdir()) == []

    def test_render_reports_script_specs_missing_instead_of_executing(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "s"
        target.mkdir()
        rc = main(["render", "table4", "--store", str(target)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "script spec" in err
        assert "table4" in err

    def test_ls_does_not_create_store(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "s"
        assert main(["ls", "--store", str(target)]) == 0
        assert "does not exist" in capsys.readouterr().out
        assert not target.exists()

    def test_run_rejects_unknown_spec(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "table99", "--store", str(tmp_path / "s")])

    def test_resume_and_fresh_conflict(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            ["run", "table2", "--profile", "det-tiny", "--store", str(tmp_path / "s"),
             "--resume", "--fresh"]
        )
        assert rc == 2
        assert "contradict" in capsys.readouterr().err

    def test_no_resume_re_executes(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        assert main(["run", "table2", "--profile", "det-tiny", "--store", store]) == 0
        capsys.readouterr()
        assert main(
            ["run", "table2", "--profile", "det-tiny", "--store", store, "--no-resume"]
        ) == 0
        assert "3 executed, 0 loaded" in capsys.readouterr().out

    def test_store_and_ephemeral_are_mutually_exclusive(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "table2", "--store", str(tmp_path / "s"), "--ephemeral"])


def _banded(x: float) -> int:
    if x > 15.0:
        return 1
    return 0


class TestSatellites:
    def test_rand_samples_the_signature_domain(self):
        from repro.baselines.harness import Budget
        from repro.baselines.random_testing import RandomTester
        from repro.instrument.program import instrument
        from repro.instrument.signature import ProgramSignature

        program = instrument(
            _banded, signature=ProgramSignature(name="banded", arity=1, low=(10.0,), high=(20.0,))
        )
        kept = RandomTester(seed=0).generate(program, Budget(max_executions=50))
        assert kept  # the first execution always increases coverage
        assert all(10.0 <= x <= 20.0 for (x,) in kept)
        # Explicit bounds still override the signature box.
        override = RandomTester(seed=0, low=-1.0, high=1.0).generate(
            program, Budget(max_executions=50)
        )
        assert all(-1.0 <= x <= 1.0 for (x,) in override)

    def test_default_domain_is_the_historical_box(self):
        case = get_case("e_acos.c:ieee754_acos(double)")
        low, high = case.domain()
        assert low == (-DEFAULT_INPUT_BOUND,)
        assert high == (DEFAULT_INPUT_BOUND,)
        program = instrument_case(case)
        assert program.signature.low == low
        assert program.signature.high == high

    def test_domain_sensitive_cases_declare_their_own(self):
        scalb = get_case("e_scalb.c:ieee754_scalb(double,double)")
        low, high = scalb.domain()
        assert low == (-1.0e6, -70000.0)
        assert high == (1.0e6, 70000.0)
        assert instrument_case(scalb).signature.high == high
        pow_case = get_case("e_pow.c:ieee754_pow(double,double)")
        assert pow_case.domain()[1] == (1.0e6, 1100.0)

    def test_domain_is_part_of_the_job_fingerprint(self):
        from repro.experiments.pipeline import _domain_tag

        scalb = get_case("e_scalb.c:ieee754_scalb(double,double)")
        default = dataclasses.replace(scalb, low=None, high=None)
        assert _domain_tag(scalb) != _domain_tag(default)

    def test_mismatched_domain_arity_rejected(self):
        case = dataclasses.replace(BENCHMARKS[0], low=(-1.0, -1.0), high=(1.0, 1.0))
        with pytest.raises(ValueError, match="must match arity"):
            case.domain()

    def test_zero_denominator_coverage_convention(self):
        summary = ToolRunSummary(
            tool="Rand", program="p", n_branches=0, covered_branches=0,
            wall_time=0.0, executions=0,
        )
        # Both percentages use the same vacuous-coverage convention.
        assert summary.branch_coverage_percent == 100.0
        assert summary.line_coverage_percent == 100.0

    def test_budget_fingerprint_tracks_values(self):
        from repro.baselines.harness import Budget

        a = Budget(max_executions=100, max_seconds=None)
        assert a.fingerprint() == Budget(max_executions=100).fingerprint()
        assert a.fingerprint() != Budget(max_executions=101).fingerprint()
        assert a.fingerprint() != Budget(max_executions=100, max_seconds=1.0).fingerprint()

    def test_stats_describe_mentions_missing_only_when_present(self):
        stats = PipelineStats(total=3, executed=1, loaded=2)
        assert "missing" not in stats.describe()
        stats.missing = 1
        assert "missing" in stats.describe()
