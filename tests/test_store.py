"""Tests for the content-addressed run store and its versioned serialization."""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.core.report import CoverMeResult, MinimizationTrace, ToolRunSummary
from repro.experiments.runner import ComparisonRow
from repro.fdlibm.suite import BENCHMARKS, case_by_key
from repro.instrument.runtime import BranchId
from repro.store import (
    SCHEMA_VERSION,
    JobKey,
    RunStore,
    SchemaVersionError,
    comparison_row_from_dict,
    comparison_row_to_dict,
    coverme_result_from_dict,
    coverme_result_to_dict,
    summary_from_dict,
    summary_to_dict,
)
from repro.store import runstore as runstore_module
from repro.store.serialize import fingerprint_of


def make_summary(**overrides) -> ToolRunSummary:
    defaults = dict(
        tool="Rand",
        program="ieee754_acos",
        n_branches=12,
        covered_branches=7,
        wall_time=0.125,
        executions=420,
        inputs=[(1.0, -2.5), (float("inf"), 0.0)],
        n_lines=30,
        covered_lines=21,
    )
    defaults.update(overrides)
    return ToolRunSummary(**defaults)


def make_key(**overrides) -> JobKey:
    defaults = dict(
        case_key="e_acos.c:ieee754_acos(double)",
        tool="Rand",
        source_hash="abc123",
        tool_fingerprint="t0",
        profile_fingerprint="p0",
        budget_fingerprint="b0",
        seed=0,
        measure_lines=False,
        domain="[[-1.0],[1.0]]",
        profile_name="smoke",
    )
    defaults.update(overrides)
    return JobKey(**defaults)


class TestSummarySerialization:
    def test_round_trip(self):
        summary = make_summary()
        data = summary_to_dict(summary)
        rebuilt = summary_from_dict(json.loads(json.dumps(data)))
        assert rebuilt == summary
        assert rebuilt.inputs[0] == (1.0, -2.5)
        assert rebuilt.inputs[1][0] == float("inf")

    def test_schema_rejection(self):
        data = summary_to_dict(make_summary())
        data["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaVersionError):
            summary_from_dict(data)
        data.pop("schema")
        with pytest.raises(SchemaVersionError):
            summary_from_dict(data)


class TestCoverMeResultSerialization:
    def make_result(self) -> CoverMeResult:
        return CoverMeResult(
            program="foo",
            inputs=[(0.5,), (2.0,)],
            n_branches=4,
            covered=frozenset({BranchId(0, True), BranchId(1, False)}),
            saturated=frozenset({BranchId(0, True)}),
            infeasible=frozenset(),
            evaluations=321,
            wall_time=1.5,
            n_starts_used=6,
            traces=[
                MinimizationTrace(
                    start=(0.0,), minimum_point=(1.0,), minimum_value=0.0, accepted=True
                )
            ],
        )

    def test_round_trip_drops_traces(self):
        result = self.make_result()
        data = coverme_result_to_dict(result)
        assert "traces" not in data
        rebuilt = coverme_result_from_dict(json.loads(json.dumps(data)))
        assert rebuilt.covered == result.covered
        assert rebuilt.saturated == result.saturated
        assert rebuilt.infeasible == result.infeasible
        assert rebuilt.inputs == result.inputs
        assert rebuilt.evaluations == result.evaluations
        assert rebuilt.traces == []

    def test_schema_rejection(self):
        data = coverme_result_to_dict(self.make_result())
        data["schema"] = 99
        with pytest.raises(SchemaVersionError):
            coverme_result_from_dict(data)


class TestComparisonRowSerialization:
    def test_round_trip_resolves_case_through_suite(self):
        case = BENCHMARKS[0]
        row = ComparisonRow(
            case=case, n_branches=12, results={"Rand": make_summary(program=case.function)}
        )
        data = comparison_row_to_dict(row)
        rebuilt = comparison_row_from_dict(json.loads(json.dumps(data)))
        assert rebuilt.case is case
        assert rebuilt.n_branches == 12
        assert rebuilt.results["Rand"] == row.results["Rand"]

    def test_unknown_case_key_raises(self):
        case = BENCHMARKS[0]
        row = ComparisonRow(case=case, n_branches=12, results={})
        data = comparison_row_to_dict(row)
        data["case"] = "nope.c:nope(double)"
        with pytest.raises(KeyError):
            comparison_row_from_dict(data)
        assert case_by_key(case.key) is case


#: ``make_key()``'s fingerprint and its ``runs.jsonl`` line, as recorded
#: before fingerprints were kept on the key.
_PINNED_FINGERPRINT = "9fc57cd16d6bfa43de512ae998ffc675344db1455222c8a6334f0c352e454660"
_PINNED_LINE = (
    b'{"fingerprint":"' + _PINNED_FINGERPRINT.encode() + b'","key":{"budget_fingerprint":"b0",'
    b'"case_key":"e_acos.c:ieee754_acos(double)","domain":"[[-1.0],[1.0]]",'
    b'"measure_lines":false,"profile_fingerprint":"p0","profile_name":"smoke","seed":0,'
    b'"source_hash":"abc123","tool":"Rand","tool_fingerprint":"t0"},'
    b'"payload":{"summary":{"tool":"Rand"},"tool_evaluations":null},"schema":1}\n'
)


class TestJobKey:
    def test_profile_name_excluded_from_fingerprint(self):
        a = make_key(profile_name="smoke")
        b = make_key(profile_name="renamed")
        assert a.fingerprint() == b.fingerprint()

    def test_result_relevant_fields_change_fingerprint(self):
        base = make_key()
        assert base.fingerprint() != make_key(measure_lines=True).fingerprint()
        assert base.fingerprint() != make_key(domain="[[-2.0],[2.0]]").fingerprint()
        assert base.fingerprint() != make_key(budget_fingerprint="b1").fingerprint()
        assert base.fingerprint() != make_key(seed=1).fingerprint()
        assert base.fingerprint() != make_key(source_hash="other").fingerprint()

    def test_key_dict_round_trip(self):
        key = make_key()
        assert JobKey.from_dict(key.to_dict()) == key

    def test_fingerprint_is_computed_once_and_equals_a_fresh_computation(self, monkeypatch):
        key = make_key()
        fresh = fingerprint_of({k: v for k, v in dataclasses.asdict(key).items()
                                if k != "profile_name"})
        assert key.fingerprint() == fresh == _PINNED_FINGERPRINT
        calls = []
        monkeypatch.setattr(runstore_module, "fingerprint_of",
                            lambda payload: calls.append(payload) or "recomputed")
        assert key.fingerprint() == fresh  # served from the key, not recomputed
        assert make_key().fingerprint() == "recomputed" and len(calls) == 1

    def test_replaced_key_gets_its_own_fingerprint(self):
        key = make_key()
        key.fingerprint()
        replaced = dataclasses.replace(key, measure_lines=True)
        assert replaced.fingerprint() == make_key(measure_lines=True).fingerprint()
        assert replaced.fingerprint() != key.fingerprint()
        renamed = dataclasses.replace(key, profile_name="renamed")
        assert renamed.fingerprint() == key.fingerprint()

    def test_fingerprint_survives_a_pickle_round_trip(self):
        key = make_key()
        key.fingerprint()
        for copy in (pickle.loads(pickle.dumps(key)), pickle.loads(pickle.dumps(make_key()))):
            assert copy == key and hash(copy) == hash(key)
            assert copy.fingerprint() == key.fingerprint() == _PINNED_FINGERPRINT
            assert copy.to_dict() == key.to_dict()

    def test_runs_jsonl_bytes_are_unchanged(self, tmp_path):
        with RunStore(tmp_path / "store") as store:
            store.put(make_key(), {"summary": {"tool": "Rand"}, "tool_evaluations": None})
        assert (tmp_path / "store" / "runs.jsonl").read_bytes() == _PINNED_LINE


class TestRunStore:
    def test_put_get_and_reload(self, tmp_path):
        root = tmp_path / "store"
        key = make_key()
        payload = {"summary": summary_to_dict(make_summary()), "tool_evaluations": None}
        with RunStore(root) as store:
            assert store.get(key) is None
            store.put(key, payload)
            assert store.get(key) == payload
            assert key in store
            assert len(store) == 1
        with RunStore(root) as reloaded:
            assert len(reloaded) == 1
            assert reloaded.get(key) == payload
            keys = [k for k, _ in reloaded.records()]
            assert keys == [key]

    def test_in_memory_store_is_not_persistent(self):
        store = RunStore(None)
        store.put(make_key(), {"summary": {}})
        assert not store.persistent
        assert len(store) == 1

    def test_torn_tail_line_is_skipped(self, tmp_path):
        root = tmp_path / "store"
        key = make_key()
        with RunStore(root) as store:
            store.put(key, {"summary": {}, "tool_evaluations": None})
        # Simulate a process killed mid-append: a truncated trailing record.
        with (root / "runs.jsonl").open("a") as handle:
            handle.write('{"schema": 1, "fingerprint": "dead", "key": {"case_')
        with RunStore(root) as reloaded:
            assert len(reloaded) == 1
            assert reloaded.get(key) is not None
        # Loading alone tolerates the torn tail without rewriting the file:
        # read-only consumers must not write even to repair.
        assert (root / "runs.jsonl").read_text().endswith('{"case_')

    def test_append_after_torn_tail_survives_the_next_load(self, tmp_path):
        """The first checkpoint after a kill-mid-write resume must not merge
        into the torn tail (it would be lost on the load after that)."""
        root = tmp_path / "store"
        first = make_key()
        with RunStore(root) as store:
            store.put(first, {"summary": {}, "tool_evaluations": None})
        with (root / "runs.jsonl").open("a") as handle:
            handle.write('{"schema": 1, "fingerprint": "dead", "key": {"case_')
        second = make_key(tool="AFL")
        with RunStore(root) as resumed:  # first put truncates the torn tail
            resumed.put(second, {"summary": {}, "tool_evaluations": None})
        with RunStore(root) as reloaded:
            assert len(reloaded) == 2
            assert reloaded.get(first) is not None
            assert reloaded.get(second) is not None

    def test_meta_schema_mismatch_rejected(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "meta.json").write_text(json.dumps({"schema": SCHEMA_VERSION + 7}))
        with pytest.raises(SchemaVersionError):
            RunStore(root)

    def test_open_for_reading_writes_nothing(self, tmp_path):
        # A store is materialized on the first put, never on open: pointing
        # a read-only consumer (`repro ls`/`render`) at a missing path or an
        # arbitrary existing directory must not mutate it.
        missing = tmp_path / "missing"
        RunStore(missing).close()
        assert not missing.exists()
        plain = tmp_path / "plain"
        plain.mkdir()
        (plain / "unrelated.txt").write_text("keep me")
        RunStore(plain).close()
        assert sorted(p.name for p in plain.iterdir()) == ["unrelated.txt"]
        with RunStore(plain) as store:
            store.put(make_key(), {"summary": {}})
        assert (plain / "meta.json").exists()
        assert (plain / "runs.jsonl").exists()

    def test_record_schema_mismatch_rejected(self, tmp_path):
        root = tmp_path / "store"
        with RunStore(root) as store:
            store.put(make_key(), {"summary": {}})
        text = (root / "runs.jsonl").read_text()
        (root / "runs.jsonl").write_text(text.replace('"schema":1', '"schema":0'))
        with pytest.raises(SchemaVersionError):
            RunStore(root)

    def test_get_satisfying_accepts_line_superset(self, tmp_path):
        store = RunStore(tmp_path / "store")
        lines_key = make_key(measure_lines=True)
        store.put(lines_key, {"summary": {"n_lines": 30}})
        branch_key = make_key(measure_lines=False)
        assert store.get(branch_key) is None
        assert store.get_satisfying(branch_key) == {"summary": {"n_lines": 30}}
        # The superset rule is one-directional: a branch-only record does
        # not satisfy a job that needs line coverage.
        other = make_key(tool="AFL", measure_lines=False)
        store.put(other, {"summary": {}})
        assert store.get_satisfying(dataclasses.replace(other, measure_lines=True)) is None
        store.close()

    def test_clear_drops_records_and_file(self, tmp_path):
        root = tmp_path / "store"
        store = RunStore(root)
        store.put(make_key(), {"summary": {}})
        assert store.clear() == 1
        assert len(store) == 0
        assert not (root / "runs.jsonl").exists()
        store.close()
        assert len(RunStore(root)) == 0

    def test_last_write_wins_on_duplicate_keys(self, tmp_path):
        root = tmp_path / "store"
        key = make_key()
        with RunStore(root) as store:
            store.put(key, {"summary": {"v": 1}})
            store.put(key, {"summary": {"v": 2}})
            assert store.get(key) == {"summary": {"v": 2}}
        with RunStore(root) as reloaded:
            assert reloaded.get(key) == {"summary": {"v": 2}}


class TestMultiProcessWriters:
    """The fcntl advisory lock makes concurrent multi-process appends safe."""

    def test_two_processes_hammer_one_store(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        root = tmp_path / "store"
        per_writer = 40
        script = (
            "import sys, json\n"
            f"sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / 'src')!r})\n"
            "from repro.store import JobKey, RunStore\n"
            "writer, n, root = sys.argv[1], int(sys.argv[2]), sys.argv[3]\n"
            "store = RunStore(root)\n"
            "try:\n"
            "    for i in range(n):\n"
            "        key = JobKey(case_key=f'case-{writer}-{i}', tool='Rand',\n"
            "                     source_hash='s', tool_fingerprint='t',\n"
            "                     profile_fingerprint='p', seed=i)\n"
            "        # A payload long enough that an unguarded interleaved\n"
            "        # write would visibly tear the JSON line.\n"
            "        store.put(key, {'summary': {'writer': writer, 'i': i, 'pad': 'x' * 512}})\n"
            "finally:\n"
            "    store.close()\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, writer, str(per_writer), str(root)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for writer in ("a", "b")
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        # Every line parses (no torn or merged appends) and every record of
        # both writers survives.
        lines = (root / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 2 * per_writer
        records = [json.loads(line) for line in lines]
        seen = {
            (rec["payload"]["summary"]["writer"], rec["payload"]["summary"]["i"])
            for rec in records
        }
        assert seen == {(w, i) for w in ("a", "b") for i in range(per_writer)}
        with RunStore(root) as reloaded:
            assert len(reloaded) == 2 * per_writer
