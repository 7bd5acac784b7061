"""Tests for the coverage service layer: admission, dedup, shards, workers.

The acceptance-critical properties live here:

* duplicate-job coalescing -- N concurrent identical submissions cost one
  execution, produce N identical results, and write the store once;
* warm-path dedup -- a second identical submission executes nothing
  (counter-asserted on the tool itself, not just the service counters);
* bit-identity across entry points -- the same seeded plan run via the
  CLI, ``execute_plan`` and the HTTP daemon produces identical
  ``runs.jsonl`` records (modulo the one wall-clock field), property-
  tested across shard counts {1, 2, 4};
* the native-tier degradation warning surfaces in job outcomes/events.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.baselines.harness import Budget
from repro.cli import main
from repro.experiments.pipeline import execute_plan, get_spec, plan_jobs
from repro.experiments.runner import PROFILES, Profile
from repro.fdlibm.suite import BENCHMARKS
from repro.service import (
    AdmissionQueue,
    CoverageService,
    JobRequest,
    QueueFull,
    ServiceClosed,
    ShardRouter,
)
from repro.store import RunStore, canonical_json

#: Deterministic profile (no wall-clock budgets): every stored field except
#: ``wall_time`` is a pure function of the seed.
DET = Profile(
    name="det-svc",
    n_start=6,
    n_iter=2,
    max_cases=2,
    coverme_time_budget=None,
    baseline_execution_factor=1,
    baseline_min_executions=200,
    seed=0,
)

CASE = BENCHMARKS[0]


def _normalized_records(runs_path) -> list[str]:
    """Canonical record lines with ``wall_time`` zeroed, sorted by content.

    ``wall_time`` is the single stored field that depends on the clock;
    append order depends on scheduling.  Everything else must be identical
    across entry points, worker modes and shard counts.
    """
    lines = []
    for line in runs_path.read_text().splitlines():
        record = json.loads(line)
        record["payload"]["summary"]["wall_time"] = 0.0
        lines.append(canonical_json(record))
    return sorted(lines)


# ---------------------------------------------------------------------------
# Test tools
# ---------------------------------------------------------------------------


class CountingTool:
    """Deterministic tool that counts its executions in a shared dict.

    Deliberately *not* a dataclass: the fingerprint comes from ``__repr__``
    (configuration only), so the mutable counter cannot leak into the job
    key and change the fingerprint between submissions.
    """

    name = "Counting"

    def __init__(self, counter: dict, seed: int = 0):
        self.counter = counter
        self.seed = seed
        self.last_evaluations = 0

    def __repr__(self) -> str:
        return f"CountingTool(seed={self.seed})"

    def generate(self, program, budget):
        self.counter["executions"] += 1
        self.last_evaluations = 1
        low, high = program.signature.low, program.signature.high
        return [tuple((lo + hi) / 2 for lo, hi in zip(low, high))]


class GateTool:
    """Blocks inside ``generate`` until released (coalescing tests)."""

    name = "Gate"

    def __init__(self, gate: "Gate", seed: int = 0):
        self.gate = gate
        self.seed = seed
        self.last_evaluations = 0

    def __repr__(self) -> str:
        return f"GateTool(seed={self.seed})"

    def generate(self, program, budget):
        self.gate.started.set()
        assert self.gate.release.wait(timeout=30), "gate never released"
        with self.gate.lock:
            self.gate.executions += 1
        low, high = program.signature.low, program.signature.high
        return [tuple((lo + hi) / 2 for lo, hi in zip(low, high))]


class Gate:
    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.lock = threading.Lock()
        self.executions = 0


# ---------------------------------------------------------------------------
# Shards and queue
# ---------------------------------------------------------------------------


class TestShardRouter:
    def test_routing_is_deterministic_and_in_range(self):
        router = ShardRouter(4)
        fp = "deadbeefcafebabe" + "0" * 48
        assert router.shard_of(fp) == router.shard_of(fp)
        assert 0 <= router.shard_of(fp) < 4
        # The documented rule: first 16 hex digits mod shard count.
        assert router.shard_of(fp) == int(fp[:16], 16) % 4

    def test_single_shard_routes_everything_to_zero(self):
        router = ShardRouter(1)
        assert router.shard_of("f" * 64) == 0

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestAdmissionQueue:
    def test_fifo_within_a_shard(self):
        queue = AdmissionQueue(n_shards=2, limit=10)
        queue.put("a", 0)
        queue.put("b", 0)
        queue.put("c", 1)
        assert queue.take([0]) == "a"
        assert queue.take([0, 1]) == "b"
        assert queue.take([1]) == "c"

    def test_nonblocking_put_raises_queue_full(self):
        queue = AdmissionQueue(n_shards=1, limit=1)
        queue.put("a", 0)
        with pytest.raises(QueueFull):
            queue.put("b", 0, block=False)
        assert queue.pending == 1

    def test_blocking_put_times_out(self):
        queue = AdmissionQueue(n_shards=1, limit=1)
        queue.put("a", 0)
        with pytest.raises(QueueFull):
            queue.put("b", 0, block=True, timeout=0.05)

    def test_close_drains_backlog_and_wakes_takers(self):
        queue = AdmissionQueue(n_shards=2, limit=10)
        queue.put("a", 0)
        queue.put("b", 1)
        taken = []
        thread = threading.Thread(target=lambda: taken.append(queue.take([0, 1])))
        drained = queue.close()
        thread.start()
        thread.join(5)
        # close() drained both pending jobs; the late taker saw the
        # closed-queue shutdown signal.
        assert sorted(drained) == ["a", "b"]
        assert taken == [None]


# ---------------------------------------------------------------------------
# CoverageService
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_second_identical_submission_executes_nothing(self, tmp_path):
        """The warm-path dedup guarantee, counter-asserted on the tool: the
        second submission never instantiates or runs the tool at all."""
        counter = {"executions": 0}
        request = JobRequest(
            case=CASE, tool="Counting", profile=DET,
            factory=lambda p: CountingTool(counter=counter),
        )
        with CoverageService(store=tmp_path / "store", worker_mode="inline") as service:
            first = service.run(request, budget=Budget(max_executions=50))
            assert counter["executions"] == 1 and not first.cached
            second = service.run(request, budget=Budget(max_executions=50))
            assert counter["executions"] == 1  # zero executions on the repeat
            assert second.cached
            assert second.payload == first.payload
            counters = service.stats()["counters"]
            assert counters["executed"] == 1 and counters["cache_hits"] == 1

    def test_cache_spans_processes_via_the_store(self, tmp_path):
        counter = {"executions": 0}
        request = JobRequest(
            case=CASE, tool="Counting", profile=DET,
            factory=lambda p: CountingTool(counter=counter),
        )
        with CoverageService(store=tmp_path / "store", worker_mode="inline") as service:
            service.run(request, budget=Budget(max_executions=50))
        # A fresh service over the same store directory (a restarted daemon,
        # another CLI invocation) serves the record without executing.
        with CoverageService(store=tmp_path / "store", worker_mode="inline") as service:
            outcome = service.run(request, budget=Budget(max_executions=50))
        assert outcome.cached and counter["executions"] == 1

    def test_resume_false_re_executes(self, tmp_path):
        counter = {"executions": 0}
        request = JobRequest(
            case=CASE, tool="Counting", profile=DET,
            factory=lambda p: CountingTool(counter=counter),
        )
        with CoverageService(store=tmp_path / "store", worker_mode="inline") as service:
            service.run(request, budget=Budget(max_executions=50))
            service.run(request, budget=Budget(max_executions=50), resume=False)
        assert counter["executions"] == 2


class TestCoalescing:
    def test_concurrent_identical_submissions_coalesce(self, tmp_path):
        """N concurrent identical submissions: one execution, N identical
        results, the store written exactly once."""
        gate = Gate()
        request = JobRequest(
            case=CASE, tool="Gate", profile=DET, factory=lambda p: GateTool(gate=gate)
        )
        budget = Budget(max_executions=50)
        store = RunStore(tmp_path / "store")
        service = CoverageService(store=store, worker_mode="thread", n_workers=2, n_shards=4)
        try:
            first = service.submit(request, budget=budget)
            assert gate.started.wait(timeout=30)  # the one execution is in flight
            with ThreadPoolExecutor(max_workers=8) as pool:
                duplicates = list(pool.map(
                    lambda _: service.submit(request, budget=budget), range(8)
                ))
            # Every duplicate coalesced onto the same in-flight job.
            assert all(job is first for job in duplicates)
            gate.release.set()
            outcomes = [service.wait(job, timeout=30) for job in [first, *duplicates]]
            assert gate.executions == 1
            assert all(o.payload == outcomes[0].payload for o in outcomes)
            assert not any(o.cached for o in outcomes)
            counters = service.stats()["counters"]
            assert counters["executed"] == 1
            assert counters["coalesced"] == 8
        finally:
            service.close(close_store=False)
        assert len(store) == 1
        assert len((tmp_path / "store" / "runs.jsonl").read_text().splitlines()) == 1
        store.close()

    def test_coalesced_events_record_the_attach(self, tmp_path):
        gate = Gate()
        request = JobRequest(
            case=CASE, tool="Gate", profile=DET, factory=lambda p: GateTool(gate=gate)
        )
        service = CoverageService(store=tmp_path / "store", worker_mode="thread", n_workers=1)
        try:
            job = service.submit(request, budget=Budget(max_executions=50))
            assert gate.started.wait(timeout=30)
            assert service.submit(request, budget=Budget(max_executions=50)) is job
            gate.release.set()
            outcome = service.wait(job, timeout=30)
        finally:
            service.close()
        assert "coalesced" in [event["event"] for event in outcome.events]


class TestBackpressure:
    def test_full_queue_rejects_nonblocking_submissions(self, tmp_path):
        gate = Gate()

        def request_for(seed: int) -> JobRequest:
            profile = dataclasses.replace(DET, seed=seed)
            return JobRequest(
                case=CASE, tool="Gate", profile=profile,
                factory=lambda p: GateTool(gate=gate, seed=p.seed),
            )

        service = CoverageService(
            store=tmp_path / "store", worker_mode="thread", n_workers=1, queue_limit=1
        )
        jobs = []
        try:
            jobs.append(service.submit(request_for(0), budget=Budget(max_executions=50)))
            assert gate.started.wait(timeout=30)  # worker busy, gate closed
            jobs.append(service.submit(request_for(1), budget=Budget(max_executions=50)))
            with pytest.raises(QueueFull):
                service.submit(
                    request_for(2), budget=Budget(max_executions=50), block=False
                )
            assert service.stats()["counters"]["rejected"] == 1
            gate.release.set()
            for job in jobs:
                service.wait(job, timeout=30)
            # Capacity freed: the previously rejected job is admitted now.
            service.wait(
                service.submit(request_for(2), budget=Budget(max_executions=50), block=False),
                timeout=30,
            )
        finally:
            service.close()


class TestLifecycle:
    def test_failed_job_reraises_on_wait(self, tmp_path):
        @dataclasses.dataclass
        class ExplodingTool:
            seed: int = 0
            name: str = "Exploding"

            def generate(self, program, budget):
                raise RuntimeError("boom")

        request = JobRequest(
            case=CASE, tool="Exploding", profile=DET, factory=lambda p: ExplodingTool()
        )
        with CoverageService(store=tmp_path / "store", worker_mode="inline") as service:
            job = service.submit(request, budget=Budget(max_executions=10))
            with pytest.raises(RuntimeError, match="boom"):
                service.wait(job)
            assert service.stats()["counters"]["failed"] == 1
        # Nothing was stored for the failed job.
        assert not (tmp_path / "store" / "runs.jsonl").exists()

    def test_closed_service_rejects_submissions(self):
        service = CoverageService(worker_mode="thread", n_workers=1)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(JobRequest(case=CASE, tool="CoverMe", profile=DET))

    def test_unknown_tool_raises_value_error(self):
        with CoverageService(worker_mode="inline") as service:
            with pytest.raises(ValueError, match="unknown tool"):
                service.submit(JobRequest(case=CASE, tool="NoSuchTool", profile=DET))


class TestWarningSurfacing:
    def test_native_degradation_warning_lands_in_job_outcome(self, tmp_path, monkeypatch):
        """Satellite: the one-time native-tier degradation RuntimeWarning
        reaches job results/events instead of dying on a worker's stderr."""
        from repro.instrument.native.cache import NativeUnavailable
        from repro.instrument.program import InstrumentedProgram
        from repro.service.jobs import instrument_for_lookup

        def unavailable(self, *args, **kwargs):
            raise NativeUnavailable("no C compiler in test")

        monkeypatch.setattr(InstrumentedProgram, "native_kernel", unavailable)
        instrument_for_lookup.cache_clear()  # fresh program, fresh warn-once state
        try:
            request = JobRequest(case=CASE, tool="CoverMe", profile=DET)
            with CoverageService(store=tmp_path / "store", worker_mode="inline") as service:
                outcome = service.run(request)
        finally:
            instrument_for_lookup.cache_clear()
        assert any("native tier permanently unavailable" in w for w in outcome.warnings)
        warning_events = [e for e in outcome.events if e["event"] == "warning"]
        assert any("native tier permanently unavailable" in e["message"] for e in warning_events)
        # The stored payload is warning-free: records stay byte-identical
        # whether or not a tier degraded en route.
        assert "warnings" not in outcome.payload

    def test_clean_runs_carry_no_degradation_warnings(self, tmp_path):
        request = JobRequest(case=CASE, tool="CoverMe", profile=DET)
        with CoverageService(store=tmp_path / "store", worker_mode="inline") as service:
            outcome = service.run(request)
        assert not any("native tier permanently unavailable" in w for w in outcome.warnings)


class TestProgressEvents:
    def test_engine_progress_streams_into_job_events(self, tmp_path):
        request = JobRequest(case=CASE, tool="CoverMe", profile=DET)
        with CoverageService(store=tmp_path / "store", worker_mode="inline") as service:
            outcome = service.run(request)
        progress = [e for e in outcome.events if e["event"] == "progress"]
        assert progress, "expected at least one engine batch-progress event"
        assert {"batch", "starts_issued", "evaluations", "covered"} <= set(progress[0])
        # Events are observers only: a run with them stores the same bytes
        # as the cache now serves (i.e. they never entered the payload).
        assert "events" not in outcome.payload


# ---------------------------------------------------------------------------
# Bit-identity across entry points and shard counts
# ---------------------------------------------------------------------------


class TestBitIdentityAcrossEntryPoints:
    def test_cli_pipeline_and_daemon_store_identical_records(self, tmp_path, monkeypatch):
        """The tentpole guarantee: the same seeded jobs submitted through
        ``repro run``, ``execute_plan`` (shard counts 1, 2, 4) and the HTTP
        daemon produce identical ``runs.jsonl`` records -- byte-for-byte
        once the one wall-clock field is zeroed."""
        from repro.service.client import ServiceClient
        from repro.service.http import serve_in_background

        monkeypatch.setitem(PROFILES, DET.name, DET)
        spec = get_spec("table2")

        # Entry point 1: the CLI.
        cli_store = tmp_path / "store-cli"
        assert main(["run", "table2", "--profile", DET.name, "--store", str(cli_store)]) == 0
        baseline = _normalized_records(cli_store / "runs.jsonl")
        assert baseline

        # Entry point 2: execute_plan through the service, shard counts 1/2/4.
        plan = plan_jobs([spec], DET)
        for n_shards in (1, 2, 4):
            shard_store = tmp_path / f"store-shards-{n_shards}"
            with RunStore(shard_store) as store:
                execute_plan(
                    plan, store=store, n_workers=2, worker_mode="thread", n_shards=n_shards
                )
            assert _normalized_records(shard_store / "runs.jsonl") == baseline, (
                f"records diverged at n_shards={n_shards}"
            )

        # Entry point 3: the HTTP daemon (CoverMe first per case, so the
        # daemon derives the same baseline budgets the pipeline did).
        daemon_store = tmp_path / "store-daemon"
        service = CoverageService(
            store=daemon_store, worker_mode="thread", n_workers=2, n_shards=2
        )
        try:
            with serve_in_background(service, profiles={DET.name: DET}) as server:
                client = ServiceClient(server.address)
                for case in plan.cases:
                    fp = client.submit(case.key, tool="CoverMe", profile=DET.name)["job"]
                    client.wait_for(fp, timeout=120)
                    for tool in ("Rand", "AFL"):
                        fp = client.submit(case.key, tool=tool, profile=DET.name)["job"]
                        client.wait_for(fp, timeout=120)
        finally:
            service.close()
        assert _normalized_records(daemon_store / "runs.jsonl") == baseline


class TestWorkerPoolJoin:
    """``WorkerPool.join`` must honour one shared deadline and *report*
    stuck workers instead of silently abandoning them (satellite fix: the
    old per-thread timeout multiplied and the result was discarded)."""

    def _pool(self, handler, n_workers=3):
        from repro.service.workers import WorkerPool

        queue = AdmissionQueue(n_shards=n_workers)
        pool = WorkerPool(queue, handler, n_workers=n_workers, n_shards=n_workers)
        return queue, pool

    def test_join_reports_stuck_workers_under_shared_deadline(self):
        import time as _time

        release = threading.Event()
        queue, pool = self._pool(lambda job, worker_id: release.wait(10.0))
        for shard in range(3):
            queue.put(object(), shard)
        deadline = _time.monotonic() + 5.0
        while sum(queue.depths()) and _time.monotonic() < deadline:
            _time.sleep(0.01)  # wait for every worker to pick up its job
        queue.close()
        started = _time.monotonic()
        unjoined = pool.join(timeout=0.3)
        elapsed = _time.monotonic() - started
        try:
            assert sorted(unjoined) == [
                "repro-service-worker-0",
                "repro-service-worker-1",
                "repro-service-worker-2",
            ]
            # Shared deadline: three stuck threads cost ~0.3 s total, not 3x.
            assert elapsed < 1.0
        finally:
            release.set()
        assert pool.join(timeout=5.0) == []

    def test_join_clean_shutdown_returns_empty(self):
        import time as _time

        handled = []
        queue, pool = self._pool(lambda job, worker_id: handled.append(job))
        for shard in range(3):
            queue.put(shard, shard)
        deadline = _time.monotonic() + 5.0
        while len(handled) < 3 and _time.monotonic() < deadline:
            _time.sleep(0.01)
        queue.close()
        assert pool.join(timeout=5.0) == []
        assert sorted(handled) == [0, 1, 2]

    def test_service_stats_surface_unjoined_workers(self, tmp_path):
        service = CoverageService(store=tmp_path / "store", worker_mode="thread", n_workers=2)
        try:
            assert service.stats()["unjoined_workers"] == []
        finally:
            service.close()
        assert service.stats()["unjoined_workers"] == []
