"""Stdlib-only asyncio HTTP front end for the coverage service.

``repro serve`` runs this daemon; it is deliberately a thin translation
layer -- every decision (dedup, cache, budgets, backpressure) lives in
:class:`~repro.service.core.CoverageService`, so daemon submissions and
in-process submissions are indistinguishable below the socket.

Endpoints (all JSON unless noted):

* ``GET /healthz`` -- liveness probe: ``{"ok": true}``.
* ``GET /stats`` -- service counters, worker mode and count, the number
  of queued jobs (``queue_depth``) and the queue limit, store size.
* ``POST /jobs`` -- submit a job.  Body::

      {"case": "<file>:<function>",      # required, e.g. "s_sin.c:sin"
       "tool": "CoverMe",                # optional, default CoverMe
       "profile": "smoke",               # optional, default smoke
       "overrides": {"n_start": 6},      # optional Profile field overrides
       "measure_lines": false}           # optional

  Replies ``200`` with the job object when it resolved instantly (result
  cache hit), ``202`` when queued/running, ``429`` when the admission
  queue is full (backpressure -- retry later), ``400`` on a malformed
  request.  The job object carries ``"job"`` (the fingerprint -- the
  job's identity and URL segment), ``"state"``, ``"cached"``, and, once
  done, ``"payload"`` plus any captured ``"warnings"``.
* ``GET /jobs/<fingerprint>`` -- poll one job.
* ``GET /jobs/<fingerprint>/events`` -- NDJSON stream of the job's event
  log (queued/running/progress/warning/done), live until the job
  finishes.  ``?from=N`` skips the first N events.
* ``POST /shutdown`` -- graceful stop (the smoke-test/CI hook).

**Auth and backpressure.**  ``--token`` gates every route except
``GET /healthz`` behind ``Authorization: Bearer <token>`` (401
otherwise).  An optional per-client sliding-window rate limit answers
429 with a ``Retry-After`` header (also mirrored as ``retry_after`` in
the JSON body); clients are keyed by token when auth is on, else by
peer address.  Queue-full 429s carry ``Retry-After`` too -- both kinds
are flow control, not errors.

Budgets follow the service rule: CoverMe jobs get the profile's
wall-clock budget; baseline jobs derive from the case's stored CoverMe
record when one exists, else the profile floor.  Submitting CoverMe first
therefore reproduces the pipeline's budget chain exactly.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import dataclasses
import hmac
import json
import threading
import time
from typing import Optional

from repro.experiments.runner import PROFILES, Profile
from repro.fdlibm.suite import case_by_key
from repro.service.core import CoverageService, ServiceClosed
from repro.service.jobs import JobRequest
from repro.service.queue import QueueFull

_PHRASES = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    503: "Service Unavailable",
}

_MAX_BODY = 1 << 20  # 1 MiB: submit bodies are tiny; refuse anything huge


class HTTPError(Exception):
    def __init__(self, status: int, message: str, headers: Optional[dict] = None,
                 extra: Optional[dict] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}
        self.extra = extra or {}


class RateLimiter:
    """Per-client sliding-window admission: at most ``limit`` requests in
    any trailing ``window`` seconds.

    Clients are keyed by bearer token when auth is on (one budget per
    credential, however many machines share it), else by peer address.
    ``check`` returns ``None`` to admit or the seconds until the oldest
    in-window request expires -- the honest ``Retry-After`` value.
    """

    def __init__(self, limit: int, window: float):
        if limit < 1 or window <= 0:
            raise ValueError("rate limit needs limit >= 1 and window > 0")
        self.limit = limit
        self.window = float(window)
        self._events: dict[str, collections.deque] = {}
        self._lock = threading.Lock()

    def check(self, key: str, now: Optional[float] = None) -> Optional[float]:
        now = time.monotonic() if now is None else now
        with self._lock:
            events = self._events.setdefault(key, collections.deque())
            while events and events[0] <= now - self.window:
                events.popleft()
            if len(events) >= self.limit:
                return max(0.0, events[0] + self.window - now)
            events.append(now)
            return None


def _profile_from_body(data: dict, profiles: dict[str, Profile]) -> Profile:
    name = data.get("profile", "smoke")
    if not isinstance(name, str) or name not in profiles:
        known = ", ".join(sorted(profiles))
        raise HTTPError(400, f"unknown profile {name!r}; known: {known}")
    profile = profiles[name]
    overrides = data.get("overrides") or {}
    if not isinstance(overrides, dict):
        raise HTTPError(400, "overrides must be an object")
    if overrides:
        known_fields = {f.name for f in dataclasses.fields(Profile)}
        unknown = sorted(set(overrides) - known_fields)
        if unknown:
            raise HTTPError(400, f"unknown profile override(s): {', '.join(unknown)}")
        try:
            profile = dataclasses.replace(profile, **overrides)
        except (TypeError, ValueError) as exc:
            raise HTTPError(400, f"invalid profile override: {exc}") from exc
    return profile


class ServiceHTTPServer:
    """One asyncio server wrapping one :class:`CoverageService`."""

    def __init__(
        self,
        service: CoverageService,
        host: str = "127.0.0.1",
        port: int = 0,
        profiles: Optional[dict[str, Profile]] = None,
        poll_interval: float = 0.05,
        token: Optional[str] = None,
        rate_limit: Optional[tuple[int, float]] = None,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.profiles = profiles if profiles is not None else PROFILES
        self.poll_interval = poll_interval
        self.token = token
        self.rate_limiter = RateLimiter(*rate_limit) if rate_limit is not None else None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(self._handle_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def request_shutdown(self) -> None:
        """Thread-unsafe half; call on the loop thread (or via
        ``loop.call_soon_threadsafe``)."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        await self._shutdown.wait()
        self._server.close()
        await self._server.wait_closed()

    # -- request plumbing --------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            try:
                method, path, headers, body = await self._read_request(reader)
            except HTTPError as exc:
                await self._respond(writer, exc.status, {"error": exc.message})
                return
            except (asyncio.IncompleteReadError, ValueError, UnicodeDecodeError):
                await self._respond(writer, 400, {"error": "malformed request"})
                return
            try:
                self._admit(method, path, headers, writer)
                await self._route(writer, method, path, body)
            except HTTPError as exc:
                await self._respond(
                    writer, exc.status, {"error": exc.message, **exc.extra}, exc.headers
                )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _admit(self, method: str, target: str, headers: dict, writer) -> None:
        """Auth then rate-limit, in that order (anonymous traffic must not
        be able to burn a token's budget).  ``GET /healthz`` stays open so
        probes work without credentials."""
        path = target.partition("?")[0]
        if path == "/healthz" and method == "GET":
            return
        presented = None
        if self.token is not None:
            auth = headers.get("authorization", "")
            scheme, _, presented = auth.partition(" ")
            if scheme.lower() != "bearer" or not hmac.compare_digest(
                presented.strip(), self.token
            ):
                raise HTTPError(401, "missing or invalid bearer token")
            presented = presented.strip()
        if self.rate_limiter is not None:
            if presented is not None:
                key = presented
            else:
                peer = writer.get_extra_info("peername")
                key = str(peer[0]) if isinstance(peer, (tuple, list)) and peer else "unknown"
            retry_after = self.rate_limiter.check(key)
            if retry_after is not None:
                raise HTTPError(
                    429,
                    "rate limit exceeded",
                    headers={"Retry-After": f"{max(retry_after, 0.001):.3f}"},
                    extra={"retry_after": round(max(retry_after, 0.001), 3)},
                )

    async def _read_request(self, reader) -> tuple[str, str, dict, bytes]:
        request_line = await reader.readline()
        if not request_line:
            raise HTTPError(400, "empty request")
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise HTTPError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise HTTPError(400, "bad Content-Length") from None
        if length > _MAX_BODY:
            raise HTTPError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _respond(
        self, writer, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        extra = "".join(f"{name}: {value}\r\n" for name, value in (headers or {}).items())
        head = (
            f"HTTP/1.1 {status} {_PHRASES.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routing -----------------------------------------------------------

    async def _route(self, writer, method: str, target: str, body: bytes) -> None:
        path, _, query = target.partition("?")
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, {"ok": True})
        elif path == "/stats" and method == "GET":
            await self._respond(writer, 200, self.service.stats())
        elif path == "/jobs" and method == "POST":
            await self._submit(writer, body)
        elif path.startswith("/jobs/") and method == "GET":
            rest = path[len("/jobs/"):]
            if rest.endswith("/events"):
                await self._stream_events(writer, rest[: -len("/events")].rstrip("/"), query)
            else:
                await self._poll(writer, rest)
        elif path == "/shutdown" and method == "POST":
            await self._respond(writer, 200, {"ok": True, "shutting_down": True})
            self.request_shutdown()
        else:
            raise HTTPError(404 if method in ("GET", "POST") else 405, f"no route for {method} {path}")

    # -- handlers ----------------------------------------------------------

    def _parse_submit(self, body: bytes) -> JobRequest:
        try:
            data = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise HTTPError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(data, dict):
            raise HTTPError(400, "body must be a JSON object")
        case_key = data.get("case")
        if not isinstance(case_key, str):
            raise HTTPError(400, 'missing required field "case" ("<file>:<function>")')
        try:
            case = case_by_key(case_key)
        except KeyError as exc:
            raise HTTPError(400, str(exc)) from exc
        tool = data.get("tool", "CoverMe")
        if not isinstance(tool, str):
            raise HTTPError(400, "tool must be a string")
        profile = _profile_from_body(data, self.profiles)
        return JobRequest(
            case=case,
            tool=tool,
            profile=profile,
            measure_lines=bool(data.get("measure_lines", False)),
        )

    async def _submit(self, writer, body: bytes) -> None:
        request = self._parse_submit(body)
        try:
            # block=False: a full queue is the client's problem (429), not
            # a reason to stall the event loop.
            job = self.service.submit(request, block=False)
        except QueueFull as exc:
            raise HTTPError(
                429, str(exc), headers={"Retry-After": "1"}, extra={"retry_after": 1}
            ) from exc
        except ServiceClosed as exc:
            raise HTTPError(503, str(exc)) from exc
        except ValueError as exc:
            raise HTTPError(400, str(exc)) from exc
        await self._respond(writer, 200 if job.finished else 202, job.snapshot())

    def _find_job(self, fingerprint: str):
        job = self.service.job(fingerprint)
        if job is None:
            raise HTTPError(404, f"unknown job {fingerprint!r}")
        return job

    async def _poll(self, writer, fingerprint: str) -> None:
        await self._respond(writer, 200, self._find_job(fingerprint).snapshot())

    async def _stream_events(self, writer, fingerprint: str, query: str) -> None:
        job = self._find_job(fingerprint)
        sent = 0
        if query.startswith("from="):
            try:
                sent = max(0, int(query[len("from="):]))
            except ValueError:
                raise HTTPError(400, "from must be an integer") from None
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        while True:
            events = job.events_snapshot()
            for event in events[sent:]:
                writer.write((json.dumps(event) + "\n").encode("utf-8"))
            sent = len(events)
            await writer.drain()
            if job.finished and sent == len(job.events_snapshot()):
                return
            await asyncio.sleep(self.poll_interval)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def serve(
    service: CoverageService,
    host: str = "127.0.0.1",
    port: int = 0,
    profiles: Optional[dict[str, Profile]] = None,
    announce=print,
    token: Optional[str] = None,
    rate_limit: Optional[tuple[int, float]] = None,
) -> None:
    """Run the daemon until ``POST /shutdown`` (or KeyboardInterrupt).

    Blocking; this is what ``repro serve`` calls.  ``announce`` receives
    the single "listening on ..." line once the socket is bound (port 0
    resolves to the actual ephemeral port first), which is what the CI
    smoke job parses.
    """

    async def _amain() -> None:
        server = ServiceHTTPServer(
            service, host, port, profiles, token=token, rate_limit=rate_limit
        )
        await server.start()
        announce(f"repro serve: listening on {server.address}")
        await server.serve_until_shutdown()

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        pass


@contextlib.contextmanager
def serve_in_background(
    service: CoverageService,
    host: str = "127.0.0.1",
    port: int = 0,
    profiles: Optional[dict[str, Profile]] = None,
    token: Optional[str] = None,
    rate_limit: Optional[tuple[int, float]] = None,
):
    """Run the daemon on a background thread; yields the started server.

    Test/embedding helper: the caller talks HTTP to ``server.address``
    and the daemon is shut down (gracefully) on context exit.  The
    service itself is *not* closed -- its owner decides that.
    """
    loop = asyncio.new_event_loop()
    server = ServiceHTTPServer(service, host, port, profiles, token=token, rate_limit=rate_limit)
    started = threading.Event()
    failures: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            failures.append(exc)
            started.set()
            return
        started.set()
        loop.run_until_complete(server.serve_until_shutdown())

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    started.wait()
    if failures:
        raise failures[0]
    try:
        yield server
    finally:
        loop.call_soon_threadsafe(server.request_shutdown)
        thread.join(timeout=10)
        if not loop.is_running():
            loop.close()
