"""HTTP daemon tests: the wire protocol over a real (in-process) socket.

Each test runs the asyncio daemon on a background thread via
``serve_in_background`` and talks to it with the stdlib
:class:`~repro.service.client.ServiceClient` -- the same path the CI
smoke job exercises against a separately-spawned ``repro serve`` process.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.runner import Profile
from repro.fdlibm.suite import BENCHMARKS
from repro.service import CoverageService
from repro.service.client import ClientError, ServiceClient
from repro.service.http import serve_in_background
from repro.service.jobs import TOOL_FACTORIES

DET = Profile(
    name="det-http",
    n_start=6,
    n_iter=2,
    max_cases=2,
    coverme_time_budget=None,
    baseline_execution_factor=1,
    baseline_min_executions=200,
    seed=0,
)

CASE_KEY = BENCHMARKS[0].key


@pytest.fixture
def daemon(tmp_path):
    """A live daemon over a thread-mode service; yields (client, service)."""
    service = CoverageService(store=tmp_path / "store", worker_mode="thread", n_workers=1)
    try:
        with serve_in_background(service, profiles={"det-http": DET}) as server:
            yield ServiceClient(server.address), service
    finally:
        service.close()


class TestEndpoints:
    def test_healthz(self, daemon):
        client, _ = daemon
        assert client.healthz() == {"ok": True}

    def test_stats_shape(self, daemon):
        client, _ = daemon
        stats = client.stats()
        assert stats["mode"] == "thread"
        assert {"submitted", "executed", "cache_hits", "coalesced"} <= set(stats["counters"])
        assert stats["store"]["persistent"] is True

    def test_submit_poll_and_cache_hit(self, daemon):
        client, service = daemon
        submitted = client.submit(CASE_KEY, tool="CoverMe", profile="det-http")
        assert submitted["state"] in ("queued", "running", "done")
        fingerprint = submitted["job"]
        done = client.wait_for(fingerprint, timeout=120)
        assert done["state"] == "done" and not done["cached"]
        assert done["evaluations"] > 0
        assert done["payload"]["summary"]["n_branches"] > 0

        # Identical resubmission: served from the result cache, zero
        # executions -- the daemon replies with an already-finished job.
        again = client.submit(CASE_KEY, tool="CoverMe", profile="det-http")
        assert again["state"] == "done" and again["cached"]
        assert again["payload"] == done["payload"]
        counters = client.stats()["counters"]
        assert counters["executed"] == 1 and counters["cache_hits"] == 1

    def test_cache_hit_is_http_200_and_queued_is_202(self, daemon):
        client, _ = daemon
        def submit_raw(body: dict):
            request = urllib.request.Request(
                client.base_url + "/jobs",
                data=json.dumps(body).encode(),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())

        body = {"case": CASE_KEY, "tool": "CoverMe", "profile": "det-http"}
        status, view = submit_raw(body)
        assert status == 202  # admitted, not yet resolved
        client.wait_for(view["job"], timeout=120)
        status, view = submit_raw(body)
        assert status == 200 and view["cached"]

    def test_event_stream_with_offset(self, daemon):
        client, _ = daemon
        fingerprint = client.submit(CASE_KEY, tool="CoverMe", profile="det-http")["job"]
        client.wait_for(fingerprint, timeout=120)
        events = list(client.events(fingerprint))
        names = [event["event"] for event in events]
        assert names[0] == "queued" and names[-1] == "done"
        assert "running" in names
        assert "progress" in names  # engine batch progress reached the wire
        # ?from=N skips the first N events.
        assert list(client.events(fingerprint, start=2)) == events[2:]

    def test_baseline_budget_derives_from_stored_coverme(self, daemon):
        """A baseline submitted after CoverMe gets the effort-derived budget
        (the pipeline's rule), observable in the job's fingerprint."""
        from repro.service.jobs import JobRequest, baseline_budget, build_job_key

        client, _ = daemon
        fingerprint = client.submit(CASE_KEY, tool="CoverMe", profile="det-http")["job"]
        coverme = client.wait_for(fingerprint, timeout=120)
        rand = client.submit(CASE_KEY, tool="Rand", profile="det-http")
        view = client.wait_for(rand["job"], timeout=120)
        assert view["state"] == "done"
        effort = max(coverme["evaluations"], DET.baseline_min_executions)
        expected = build_job_key(
            JobRequest(case=BENCHMARKS[0], tool="Rand", profile=DET),
            baseline_budget(DET, effort),
        )
        assert view["job"] == expected.fingerprint()


class TestRejections:
    def test_unknown_route_is_404(self, daemon):
        client, _ = daemon
        for method, path in (("GET", "/nope"), ("POST", "/distributed/lease")):
            with pytest.raises(ClientError) as excinfo:
                client._request(method, path)
            assert excinfo.value.status == 404, (method, path)

    def test_unknown_job_is_404(self, daemon):
        client, _ = daemon
        with pytest.raises(ClientError) as excinfo:
            client.job("0" * 64)
        assert excinfo.value.status == 404

    @pytest.mark.parametrize(
        "body",
        [
            {},  # missing case
            {"case": "nope.c:nope"},  # unknown case
            {"case": CASE_KEY, "tool": "NoSuchTool"},  # unknown tool
            {"case": CASE_KEY, "profile": "no-such-profile"},  # unknown profile
            {"case": CASE_KEY, "profile": "det-http", "overrides": {"bogus": 1}},
            {"case": CASE_KEY, "profile": "det-http", "overrides": "n_start=4"},
        ],
    )
    def test_bad_submissions_are_400(self, daemon, body):
        client, _ = daemon
        with pytest.raises(ClientError) as excinfo:
            client._request("POST", "/jobs", body)
        assert excinfo.value.status == 400

    def test_removed_profile_field_override_is_400_naming_it(self, daemon):
        client, _ = daemon
        with pytest.raises(ClientError) as excinfo:
            client.submit(CASE_KEY, profile="det-http",
                          overrides={"start_strategy": "latin-hypercube"})
        assert excinfo.value.status == 400
        assert "start_strategy" in excinfo.value.payload["error"]

    def test_invalid_json_body_is_400(self, daemon):
        client, _ = daemon
        request = urllib.request.Request(
            client.base_url + "/jobs",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_full_queue_is_429_then_drains(self, tmp_path, monkeypatch):
        """Backpressure over the wire: a saturated admission queue maps to
        HTTP 429, and the same submission is admitted once capacity frees."""
        gate_started = threading.Event()
        gate_release = threading.Event()

        class HTTPGateTool:
            name = "Gate"

            def __init__(self, seed: int = 0):
                self.seed = seed
                self.last_evaluations = 0

            def __repr__(self) -> str:
                return f"HTTPGateTool(seed={self.seed})"

            def generate(self, program, budget):
                gate_started.set()
                assert gate_release.wait(timeout=30), "gate never released"
                low, high = program.signature.low, program.signature.high
                return [tuple((lo + hi) / 2 for lo, hi in zip(low, high))]

        monkeypatch.setitem(TOOL_FACTORIES, "Gate", lambda p: HTTPGateTool(seed=p.seed))
        service = CoverageService(
            store=tmp_path / "store", worker_mode="thread", n_workers=1, queue_limit=1
        )
        try:
            with serve_in_background(service, profiles={"det-http": DET}) as server:
                client = ServiceClient(server.address)

                def submit_gate(seed: int) -> dict:
                    return client.submit(
                        CASE_KEY, tool="Gate", profile="det-http", overrides={"seed": seed}
                    )

                first = submit_gate(0)
                assert gate_started.wait(timeout=30)  # worker busy behind the gate
                second = submit_gate(1)  # fills the queue (limit 1)
                with pytest.raises(ClientError) as excinfo:
                    submit_gate(2)
                assert excinfo.value.status == 429
                assert "retry later" in excinfo.value.payload["error"]
                gate_release.set()
                client.wait_for(first["job"], timeout=60)
                client.wait_for(second["job"], timeout=60)
                third = submit_gate(2)  # capacity freed: admitted now
                client.wait_for(third["job"], timeout=60)
                assert client.stats()["counters"]["rejected"] == 1
        finally:
            service.close()


class TestShutdown:
    def test_shutdown_stops_accepting_connections(self, tmp_path):
        service = CoverageService(store=tmp_path / "store", worker_mode="thread", n_workers=1)
        try:
            with serve_in_background(service) as server:
                client = ServiceClient(server.address)
                assert client.shutdown()["shutting_down"] is True
                # The listener is gone shortly after the response is sent.
                deadline = 50
                for _ in range(deadline):
                    try:
                        client.healthz()
                    except (urllib.error.URLError, ConnectionError):
                        break
                    time.sleep(0.1)
                else:
                    pytest.fail("daemon kept serving after /shutdown")
        finally:
            service.close()


class TestAuthAndRateLimit:
    """Per-client bearer auth + sliding-window rate limit: both gate every
    route of the daemon except ``GET /healthz``, reads and writes alike."""

    TOKEN = "hunter2"

    @pytest.fixture
    def secured(self, tmp_path):
        service = CoverageService(
            store=tmp_path / "store", worker_mode="thread", n_workers=1
        )
        try:
            with serve_in_background(
                service,
                profiles={"det-http": DET},
                token=self.TOKEN,
                rate_limit=(5, 0.5),
            ) as server:
                yield server.address, service
        finally:
            service.close()

    def test_healthz_is_exempt_from_auth(self, secured):
        address, _ = secured
        assert ServiceClient(address).healthz() == {"ok": True}

    def test_missing_token_is_401(self, secured):
        address, _ = secured
        with pytest.raises(ClientError) as err:
            ServiceClient(address).stats()
        assert err.value.status == 401

    def test_wrong_token_is_401(self, secured):
        address, _ = secured
        with pytest.raises(ClientError) as err:
            ServiceClient(address, token="nope").stats()
        assert err.value.status == 401

    def test_correct_token_admits(self, secured):
        address, _ = secured
        stats = ServiceClient(address, token=self.TOKEN).stats()
        assert stats["mode"] == "thread"

    def test_submit_requires_token(self, secured):
        # A POST route sits behind the same gate as the reads.
        address, service = secured
        with pytest.raises(ClientError) as err:
            ServiceClient(address).submit(CASE_KEY, profile="det-http")
        assert err.value.status == 401
        assert service.stats()["counters"]["submitted"] == 0

    def test_sixth_rapid_request_is_429_with_retry_after(self, secured):
        address, _ = secured
        client = ServiceClient(address, token=self.TOKEN)
        for _ in range(5):
            client.stats()
        with pytest.raises(ClientError) as err:
            client.stats()
        assert err.value.status == 429
        assert err.value.payload["retry_after"] > 0
        # The Retry-After header rides on the raw HTTP response too.
        request = urllib.request.Request(
            f"{address}/stats",
            headers={"Authorization": f"Bearer {self.TOKEN}"},
        )
        with pytest.raises(urllib.error.HTTPError) as raw:
            urllib.request.urlopen(request, timeout=10)
        assert raw.value.code == 429
        assert float(raw.value.headers["Retry-After"]) > 0

    def test_window_expiry_readmits(self, secured):
        address, _ = secured
        client = ServiceClient(address, token=self.TOKEN)
        for _ in range(5):
            client.stats()
        with pytest.raises(ClientError):
            client.stats()
        time.sleep(0.6)  # let the 0.5 s window drain
        assert client.stats()["mode"] == "thread"

class TestRateLimiterUnit:
    def test_sliding_window(self):
        from repro.service.http import RateLimiter

        limiter = RateLimiter(limit=2, window=1.0)
        assert limiter.check("k", now=0.0) is None
        assert limiter.check("k", now=0.1) is None
        retry = limiter.check("k", now=0.2)
        assert retry == pytest.approx(0.8)
        assert limiter.check("other", now=0.2) is None  # independent key
        assert limiter.check("k", now=1.05) is None  # first slot expired
