"""Minimal stdlib HTTP client for the coverage daemon.

``ServiceClient`` mirrors the daemon's endpoints one method each; it is
what the CI smoke job and the HTTP tests use, and doubles as executable
documentation of the wire protocol.  Nothing here depends on the rest of
the service package, so scripts on machines without the repo's heavier
imports can lift it wholesale.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Iterator, Optional


class ClientError(RuntimeError):
    """A non-2xx daemon response (the status and decoded body attached)."""

    def __init__(self, status: int, payload: dict):
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServiceClient:
    def __init__(self, base_url: str, timeout: float = 30.0, token: Optional[str] = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.token = token

    # -- plumbing ----------------------------------------------------------

    def _headers(self, data: Optional[bytes]) -> dict:
        headers = {"Content-Type": "application/json"} if data else {}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers=self._headers(data),
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                body = json.loads(exc.read().decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                body = {"error": exc.reason}
            raise ClientError(exc.code, body) from exc

    # -- endpoints ---------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def submit(
        self,
        case: str,
        tool: str = "CoverMe",
        profile: str = "smoke",
        overrides: Optional[dict] = None,
        measure_lines: bool = False,
    ) -> dict:
        body = {"case": case, "tool": tool, "profile": profile, "measure_lines": measure_lines}
        if overrides:
            body["overrides"] = overrides
        return self._request("POST", "/jobs", body)

    def job(self, fingerprint: str) -> dict:
        return self._request("GET", f"/jobs/{fingerprint}")

    def wait_for(self, fingerprint: str, timeout: float = 300.0, interval: float = 0.1) -> dict:
        """Poll until the job leaves queued/running; returns its final view.

        Raises :class:`TimeoutError` on expiry and :class:`ClientError` if
        the job failed server-side.
        """
        deadline = time.monotonic() + timeout
        while True:
            view = self.job(fingerprint)
            if view["state"] == "failed":
                raise ClientError(500, {"error": view.get("error"), "job": view})
            if view["state"] == "done":
                return view
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {fingerprint} still {view['state']} after {timeout}s")
            time.sleep(interval)

    def events(self, fingerprint: str, start: int = 0) -> Iterator[dict]:
        """Stream the job's NDJSON event log (blocks until the job ends)."""
        request = urllib.request.Request(
            f"{self.base_url}/jobs/{fingerprint}/events?from={start}",
            headers=self._headers(None),
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")
