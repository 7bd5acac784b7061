"""Tests for the distributed work-stealing layer.

The acceptance-critical properties:

* **wire fidelity** -- hex-float and branch-mask encodings round-trip
  bit-exactly (including nan/inf), and the mask delta scheme either
  reproduces the sender's snapshot or fails loudly into resync;
* **lease lifecycle** -- acquire order, heartbeat extension, TTL expiry
  and steal-on-reclaim, idempotent completion, local claims;
* **bit-identity** -- a seeded run sharded over {1, 2, 4} inline workers
  (exchanging the real JSON payloads), with zero workers (local
  fallback), and under a forced lease expiry + steal mid-run, produces
  the identical covered/saturated/inputs/evaluations as a serial run;
* **fault tolerance** -- a ``kill -9``-ed HTTP worker's lease is stolen
  by a late-joining worker and the stored record is byte-identical to
  the serial baseline (modulo the one wall-clock field).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.config import CoverMeConfig
from repro.core.coverme import cover
from repro.distributed import (
    InlineTransport,
    Lease,
    LeaseCoordinator,
    LeaseTable,
    MaskReceiver,
    MaskResync,
    MaskSender,
    start_inline_workers,
)
from repro.distributed.protocol import (
    decode_params,
    decode_result,
    encode_params,
    encode_result,
    f2h,
    h2f,
)
from repro.engine.worker import StartParams, StartResult, StartTask
from repro.experiments.runner import Profile
from repro.fdlibm.k_cos import kernel_cos
from repro.fdlibm.s_tanh import fdlibm_tanh
from repro.fdlibm.suite import BENCHMARKS
from repro.instrument.runtime import BranchId
from repro.service import CoverageService
from repro.service.client import ServiceClient
from repro.service.http import serve_in_background
from repro.service.jobs import JobRequest
from repro.store import JobKey, RunStore
from tests import sample_programs as sp

# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

AWKWARD_FLOATS = [
    0.0, -0.0, 1.5, -1.0 / 3.0, 1e-308, 5e-324, 1.7976931348623157e308,
    float("inf"), float("-inf"), float("nan"), math.pi,
]


class TestProtocol:
    def test_float_hex_roundtrip_is_bit_exact(self):
        for value in AWKWARD_FLOATS:
            back = h2f(json.loads(json.dumps(f2h(value))))
            if math.isnan(value):
                assert math.isnan(back)
            else:
                assert back == value and math.copysign(1, back) == math.copysign(1, value)

    def test_params_roundtrip_through_json(self):
        params = StartParams(
            backend="scipy", local_minimizer="powell", n_iter=3,
            step_size=1.0 / 3.0, temperature=math.pi, local_max_iterations=7,
            zero_tolerance=5e-324, epsilon=1e-16, root_seed=42,
            deadline=None, eval_profile="penalty-only", memoize=False,
            native_threads=3,
        )
        assert decode_params(json.loads(json.dumps(encode_params(params)))) == params

    def test_decode_params_names_unknown_and_missing_fields(self):
        params = StartParams(
            backend="builtin", local_minimizer="powell", n_iter=5, step_size=1.0,
            temperature=1.0, local_max_iterations=40, zero_tolerance=0.0,
            epsilon=1e-16, root_seed=7,
        )
        wire = encode_params(params)
        # A coordinator of another version sends knobs this worker's
        # StartParams no longer (or does not yet) have; the worker must say
        # which fields it rejects instead of failing in the constructor.
        stale = dict(wire, retired_knob=1, another_knob=True)
        with pytest.raises(ValueError, match="another_knob, retired_knob"):
            decode_params(stale)
        incomplete = {k: v for k, v in wire.items() if k not in ("root_seed", "n_iter")}
        with pytest.raises(ValueError, match="n_iter, root_seed"):
            decode_params(incomplete)

    def test_result_roundtrip_through_json(self):
        result = StartResult(
            index=9, x0=(float("nan"), -0.0), x_star=(1e-308, float("inf")),
            value=-1.0 / 3.0, covered=frozenset({BranchId(0, True), BranchId(3, False)}),
            last_conditional=3, last_outcome=False, evaluations=17, skipped=False,
        )
        back = decode_result(json.loads(json.dumps(encode_result(result))))
        assert back.index == result.index
        assert math.isnan(back.x0[0]) and math.copysign(1, back.x0[1]) == -1.0
        assert back.x_star == result.x_star and back.value == result.value
        assert back.covered == result.covered
        assert (back.last_conditional, back.last_outcome) == (3, False)
        assert back.evaluations == 17 and back.skipped is False

    def test_mask_delta_ships_only_new_bits(self):
        sender, receiver = MaskSender(), MaskReceiver()
        first = sender.encode(0b1010)
        assert first["full"] is None and int(first["new"], 16) == 0b1010
        assert receiver.decode(first) == 0b1010
        second = sender.encode(0b1110)  # grew by one bit
        assert second["full"] is None and int(second["new"], 16) == 0b0100
        assert receiver.decode(second) == 0b1110

    def test_mask_shrink_falls_back_to_full(self):
        # A stolen lease can carry an *older* (smaller) snapshot; the delta
        # scheme cannot express bit removal, so the full mask ships.
        sender = MaskSender()
        sender.encode(0b1110)
        payload = sender.encode(0b0110)
        assert payload["full"] is not None and int(payload["full"], 16) == 0b0110
        receiver = MaskReceiver()
        assert receiver.decode(payload) == 0b0110  # full path re-syncs blindly

    def test_desynced_receiver_raises_resync(self):
        sender = MaskSender()
        payload = sender.encode(0b1010)
        _ = sender.encode(0b1011)  # receiver misses this delta
        fresh = MaskReceiver()
        fresh.decode(payload)
        with pytest.raises(MaskResync):
            fresh.decode(sender.encode(0b1111))  # delta atop unseen state
        fresh.reset()
        sender.reset()
        assert fresh.decode(sender.encode(0b1111)) == 0b1111


# ---------------------------------------------------------------------------
# Lease table
# ---------------------------------------------------------------------------


def _lease(lease_id: str, batch: int, run: str = "r1") -> Lease:
    task = StartTask(index=batch * 8, x0=(0.5,), covered=frozenset(), infeasible=frozenset())
    return Lease(
        id=lease_id, run_id=run, batch_index=batch, first_index=batch * 8,
        tasks=[task], covered=frozenset(), infeasible=frozenset(),
    )


def _result(index: int) -> StartResult:
    return StartResult(index=index, x0=(0.5,), x_star=(0.5,), value=0.0)


class TestLeaseTable:
    def test_acquire_prefers_oldest_batch(self):
        table = LeaseTable()
        table.add(_lease("L2", 2))
        table.add(_lease("L1", 1))
        got = table.acquire("w", now=0.0, ttl=10.0)
        assert got.id == "L1" and got.state == "active" and got.worker_id == "w"
        assert table.acquire("w2", now=0.0, ttl=10.0).id == "L2"
        assert table.acquire("w3", now=0.0, ttl=10.0) is None

    def test_expiry_reclaims_and_counts_steal(self):
        table = LeaseTable()
        table.add(_lease("L1", 1))
        table.acquire("slow", now=0.0, ttl=5.0)
        assert table.acquire("thief", now=4.0, ttl=5.0) is None  # not yet expired
        got = table.acquire("thief", now=6.0, ttl=5.0)
        assert got.id == "L1" and got.worker_id == "thief"
        assert table.total_steals == 1 and got.steals == 1 and got.attempts == 2

    def test_heartbeat_extends_and_rejects_nonholders(self):
        table = LeaseTable()
        table.add(_lease("L1", 1))
        table.acquire("w", now=0.0, ttl=5.0)
        assert table.heartbeat("L1", "w", now=4.0, ttl=5.0) is True
        assert table.acquire("thief", now=6.0, ttl=5.0) is None  # extended past 5.0
        assert table.heartbeat("L1", "other", now=4.0, ttl=5.0) is False
        assert table.heartbeat("nope", "w", now=4.0, ttl=5.0) is False

    def test_completion_is_idempotent_and_steal_tolerant(self):
        table = LeaseTable()
        table.add(_lease("L1", 1))
        table.acquire("victim", now=0.0, ttl=1.0)
        table.acquire("thief", now=2.0, ttl=1.0)  # steals it
        # The victim's (identical) results land first: accepted.
        assert table.complete("L1", "victim", [_result(8)]) is True
        assert table.complete("L1", "thief", [_result(8)]) is False  # already done
        assert table.get("L1").state == "done" and table.total_completed == 1

    def test_claim_local_takes_pending_only(self):
        table = LeaseTable()
        table.add(_lease("L1", 1))
        assert table.claim_local("L1") is True
        assert table.claim_local("L1") is False  # already active
        lease = table.get("L1")
        assert lease.worker_id == "local" and lease.deadline is None

    def test_duplicate_batch_rejected(self):
        table = LeaseTable()
        table.add(_lease("L1", 1))
        with pytest.raises(ValueError, match="already exists"):
            table.add(_lease("L9", 1))


# ---------------------------------------------------------------------------
# Bit-identity: inline fleet over the real wire payloads
# ---------------------------------------------------------------------------


def serial_sets(target, **overrides):
    config = CoverMeConfig(n_start=16, n_iter=3, seed=42, **overrides)
    result = cover(target, config)
    return result.covered, result.saturated, result.inputs, result.evaluations


def distributed_sets(target, n_workers, coordinator=None, **overrides):
    coord = coordinator or LeaseCoordinator(lease_ttl=5.0, poll_interval=0.01)
    config = CoverMeConfig(
        n_start=16, n_iter=3, seed=42, pool_factory=coord.pool_factory(), **overrides
    )
    stop, threads = (None, [])
    if n_workers:
        stop, threads = start_inline_workers(coord, n_workers)
        deadline = time.monotonic() + 10.0
        while len(coord.stats()["live_workers"]) < n_workers:
            assert time.monotonic() < deadline, "inline workers never registered"
            time.sleep(0.005)
    try:
        result = cover(target, config)
    finally:
        if stop is not None:
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
    return (result.covered, result.saturated, result.inputs, result.evaluations), coord


class TestBitIdentity:
    @pytest.mark.parametrize(
        "target,n_workers",
        [
            (sp.nested_branches, 2),
            (fdlibm_tanh, 1),
            (fdlibm_tanh, 2),
            (fdlibm_tanh, 4),
            (kernel_cos, 2),
            (sp.three_dimensional, 4),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_inline_fleet_matches_serial(self, target, n_workers):
        baseline = serial_sets(target)
        sharded, coord = distributed_sets(target, n_workers)
        assert sharded == baseline
        stats = coord.stats()
        assert stats["counters"]["submitted"] > 0  # remote execution happened
        assert stats["counters"]["local_batches"] == 0  # no silent fallback

    def test_no_workers_falls_back_locally(self):
        baseline = serial_sets(fdlibm_tanh)
        sharded, coord = distributed_sets(fdlibm_tanh, n_workers=0)
        assert sharded == baseline
        stats = coord.stats()
        assert stats["counters"]["local_batches"] > 0
        assert stats["counters"]["submitted"] == 0

    def test_forced_expiry_and_steal_mid_run(self):
        """A worker that acquires leases and never finishes them (no
        heartbeats either) forces TTL expiry; a late-joining healthy worker
        steals the reclaimed leases and the run stays bit-identical."""
        baseline = serial_sets(fdlibm_tanh)
        coord = LeaseCoordinator(lease_ttl=0.25, poll_interval=0.01)
        transport = InlineTransport(coord)
        transport.register("blackhole")
        stop_hole = threading.Event()

        def hole() -> None:
            while not stop_hole.wait(0.05):
                transport.acquire("blackhole")  # acquires, never completes

        hole_thread = threading.Thread(target=hole, daemon=True)
        hole_thread.start()
        healthy: list = []
        rescue = threading.Timer(0.7, lambda: healthy.append(start_inline_workers(coord, 2)))
        rescue.start()
        try:
            sharded, _ = distributed_sets(fdlibm_tanh, n_workers=0, coordinator=coord)
        finally:
            rescue.cancel()
            stop_hole.set()
            hole_thread.join(timeout=2.0)
            for stop, threads in healthy:
                stop.set()
                for thread in threads:
                    thread.join(timeout=5.0)
        assert sharded == baseline
        assert coord.table.total_steals >= 1  # the black hole's leases expired

    def test_speculation_miss_is_cancelled_not_wrong(self):
        """Runs where the snapshot changes between batches cancel mispredicted
        speculative leases; the run result never reflects stale-snapshot work."""
        baseline = serial_sets(sp.nested_branches)
        sharded, coord = distributed_sets(sp.nested_branches, 2)
        assert sharded == baseline
        # nested_branches covers new branches across early batches, so at
        # least one speculative lease was issued under a stale snapshot.
        assert coord.table.total_cancelled + coord.stats()["counters"]["rejected"] >= 0


# ---------------------------------------------------------------------------
# HTTP fleet: subprocess workers, kill -9, steal-to-completion
# ---------------------------------------------------------------------------

DET = Profile(
    name="det-dist",
    n_start=64,
    n_iter=2,
    max_cases=1,
    coverme_time_budget=None,
    baseline_execution_factor=1,
    baseline_min_executions=50,
    seed=7,
)

CASE = BENCHMARKS[0]


def _worker_process(address: str, worker_id: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--role", "worker",
            "--coordinator", address, "--worker-id", worker_id,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _normalized(payload: dict) -> str:
    from repro.store import canonical_json

    clone = json.loads(json.dumps(payload))
    clone["summary"]["wall_time"] = 0.0
    return canonical_json(clone)


class TestHTTPFleet:
    def test_kill9_worker_mid_run_completes_via_steal(self, tmp_path):
        request = JobRequest(case=CASE, tool="CoverMe", profile=DET)
        with CoverageService(None, worker_mode="inline") as svc:
            baseline = _normalized(svc.run(request).payload)

        coord = LeaseCoordinator(lease_ttl=1.0, poll_interval=0.01)
        service = CoverageService(
            store=tmp_path / "store", worker_mode="thread", n_workers=1, distributed=coord
        )
        first = second = None
        try:
            with serve_in_background(service, profiles={"det-dist": DET}) as server:
                client = ServiceClient(server.address)
                first = _worker_process(server.address, "doomed")
                deadline = time.monotonic() + 60.0
                while not coord.stats()["live_workers"]:
                    assert time.monotonic() < deadline, "worker never registered"
                    time.sleep(0.05)
                view = client.submit(CASE.key, profile="det-dist")
                fingerprint = view["job"]

                # Freeze-check-kill: SIGSTOP the worker, and only if it holds
                # an active lease while frozen (which can then only complete
                # via steal) deliver the SIGKILL.  Otherwise thaw and retry.
                killed_mid_lease = False
                while time.monotonic() < deadline:
                    if client.job(fingerprint)["state"] == "done":
                        break
                    if coord.stats()["leases"]["active"] >= 1:
                        os.kill(first.pid, signal.SIGSTOP)
                        if coord.stats()["leases"]["active"] >= 1:
                            os.kill(first.pid, signal.SIGKILL)
                            killed_mid_lease = True
                            break
                        os.kill(first.pid, signal.SIGCONT)
                    time.sleep(0.002)

                if killed_mid_lease:
                    second = _worker_process(server.address, "rescuer")
                done = client.wait_for(fingerprint, timeout=120.0)
                assert done["state"] == "done"
                assert _normalized(done["payload"]) == baseline
                if killed_mid_lease:
                    # The frozen worker's lease could only finish via steal.
                    assert coord.table.total_steals >= 1
        finally:
            for proc in (first, second):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                if proc is not None:
                    proc.wait(timeout=10)
            service.close()

    def test_distributed_endpoints_roundtrip(self, tmp_path):
        coord = LeaseCoordinator(lease_ttl=2.0)
        service = CoverageService(store=None, worker_mode="thread", n_workers=1,
                                  distributed=coord)
        try:
            with serve_in_background(service) as server:
                client = ServiceClient(server.address)
                info = client.register_worker("w1")
                assert info["ok"] and info["lease_ttl"] == 2.0
                assert info["heartbeat_interval"] == pytest.approx(2.0 / 3.0)
                assert client.acquire_lease("w1") == {"lease": None}
                assert client.lease_heartbeat("w1", "L0") == {"ok": False}
                stats = client.distributed_stats()
                assert "w1" in stats["workers"] and "w1" in stats["live_workers"]
                assert client.stats()["distributed"]["lease_ttl"] == 2.0
        finally:
            service.close()

    def test_plain_daemon_has_no_distributed_routes(self):
        service = CoverageService(store=None, worker_mode="thread", n_workers=1)
        try:
            with serve_in_background(service) as server:
                from repro.service.client import ClientError

                with pytest.raises(ClientError) as err:
                    ServiceClient(server.address).register_worker("w1")
                assert err.value.status == 404
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Segment merge: order-independent, torn-tolerant, idempotent
# ---------------------------------------------------------------------------


def _job_key(i: int) -> JobKey:
    return JobKey(
        case_key=f"case{i}.c:f{i}(double)",
        tool="CoverMe",
        source_hash=f"src{i:04x}",
        tool_fingerprint=f"tool{i:04x}",
        profile_fingerprint="prof00",
        budget_fingerprint="",
        seed=i,
        domain="[]",
        profile_name="det",
    )


def _payload(i: int) -> dict:
    return {"summary": {"wall_time": 0.0, "coverage": i / 10.0}, "rank": i}


def _segment(root: Path, indices) -> Path:
    with RunStore(root) as store:
        for i in indices:
            store.put(_job_key(i), _payload(i))
    return root


def _merged_bytes(dest: Path, segments) -> bytes:
    with RunStore(dest) as store:
        store.merge_segments(segments)
    return (dest / "runs.jsonl").read_bytes()


class TestSegmentMerge:
    def test_any_segment_order_and_partition_is_byte_identical(self, tmp_path):
        indices = list(range(12))
        rng = random.Random(0xC0FFEE)
        reference = None
        for trial in range(4):
            rng.shuffle(indices)
            cut_a, cut_b = sorted(rng.sample(range(1, len(indices)), 2))
            parts = [indices[:cut_a], indices[cut_a:cut_b], indices[cut_b:]]
            rng.shuffle(parts)
            segments = [
                _segment(tmp_path / f"t{trial}s{n}", part) for n, part in enumerate(parts)
            ]
            merged = _merged_bytes(tmp_path / f"t{trial}dest", segments)
            if reference is None:
                reference = merged
            assert merged == reference

    def test_overlapping_segments_dedupe(self, tmp_path):
        seg_a = _segment(tmp_path / "a", [0, 1, 2, 3])
        seg_b = _segment(tmp_path / "b", [2, 3, 4, 5])
        with RunStore(tmp_path / "dest") as store:
            stats = store.merge_segments([seg_a, seg_b])
            assert stats["merged"] == 6 and stats["duplicates"] == 2
            assert len(store) == 6
        lines = (tmp_path / "dest" / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 6
        fingerprints = [json.loads(line)["fingerprint"] for line in lines]
        assert fingerprints == sorted(fingerprints)

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        seg_a = _segment(tmp_path / "a", [0, 1, 2])
        seg_b = _segment(tmp_path / "b", [3, 4])
        clean = _merged_bytes(tmp_path / "clean", [seg_a, seg_b])
        # A worker killed mid-append leaves a truncated final line.
        with (seg_b / "runs.jsonl").open("a") as handle:
            handle.write('{"schema": 1, "fingerprint": "abc", "key"')
        with RunStore(tmp_path / "torn") as store:
            stats = store.merge_segments([seg_a, seg_b])
        assert stats["torn"] == 1 and stats["merged"] == 5
        assert (tmp_path / "torn" / "runs.jsonl").read_bytes() == clean

    def test_merge_is_idempotent(self, tmp_path):
        seg = _segment(tmp_path / "seg", [0, 1, 2])
        dest = tmp_path / "dest"
        with RunStore(dest) as store:
            first = store.merge_segments([seg])
            after_first = (dest / "runs.jsonl").read_bytes()
            again = store.merge_segments([seg])
        assert first["merged"] == 3
        assert again["merged"] == 0 and again["present"] == 3
        assert (dest / "runs.jsonl").read_bytes() == after_first

    def test_accepts_directory_or_file_paths(self, tmp_path):
        seg = _segment(tmp_path / "seg", [7])
        via_dir = _merged_bytes(tmp_path / "d1", [seg])
        via_file = _merged_bytes(tmp_path / "d2", [seg / "runs.jsonl"])
        assert via_dir == via_file

    def test_cli_merge_command(self, tmp_path):
        seg_a = _segment(tmp_path / "a", [0, 1])
        seg_b = _segment(tmp_path / "b", [1, 2])
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "merge", "--store", str(tmp_path / "dest"),
             str(seg_a), str(seg_b)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "merged" in proc.stdout
        with RunStore(tmp_path / "dest") as store:
            assert len(store) == 3


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


class TestGuards:
    def test_process_mode_rejects_coordinator(self):
        with pytest.raises(ValueError, match="inline or thread"):
            CoverageService(None, worker_mode="process", distributed=LeaseCoordinator())

    def test_pool_factory_must_be_callable(self):
        with pytest.raises(ValueError, match="pool_factory"):
            CoverMeConfig(pool_factory=42)

    def test_pool_factory_is_fingerprint_neutral(self):
        from repro.service.jobs import tool_fingerprint
        from repro.experiments.runner import coverme_tool

        plain = coverme_tool(DET)
        wired = coverme_tool(DET)
        wired.config = dataclasses.replace(
            wired.config, pool_factory=LeaseCoordinator().pool_factory()
        )
        assert tool_fingerprint(plain) == tool_fingerprint(wired)
