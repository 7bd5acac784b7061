"""Content-addressed, append-only store for experiment job results.

One *job* is one (benchmark case, tool) run under a fixed configuration; its
identity is a :class:`JobKey` whose fingerprint covers everything that can
change the result:

* the SHA-256 of the **instrumented source** (entry function plus extras,
  post-AST-pass), so editing a benchmark port or the instrumentation pass
  invalidates exactly the affected cases;
* the tool name and a fingerprint of the tool's configuration (seeds,
  CoverMe config, mutation parameters);
* a fingerprint of the execution :class:`~repro.experiments.runner.Profile`
  (minus fields that provably do not change results, see
  :func:`repro.experiments.pipeline.profile_fingerprint`);
* the budget fingerprint (baseline budgets derive from CoverMe's measured
  effort, so the derived budget is part of the baseline job's identity);
* the case key, the seed, the input domain, and whether line coverage was
  measured.

On disk a store is a directory holding ``meta.json`` (schema version) and
``runs.jsonl`` -- one JSON record per completed job, appended and flushed as
each job finishes so an interrupted run loses at most the job in flight.
The directory and ``meta.json`` are materialized lazily on the first
:meth:`RunStore.put`, so read-only consumers (``repro ls``, ``repro
render``, script-only runs) never mutate the path they are pointed at.  A
truncated final line (the process died mid-write) is skipped on load; every
complete record survives.  Constructing a :class:`RunStore` with
``root=None`` gives an in-memory store with identical semantics and no
persistence (used by the legacy one-shot experiment entry points).
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

try:  # advisory inter-process locking; absent on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover - POSIX-only dependency
    fcntl = None

from repro.store.serialize import (
    SCHEMA_VERSION,
    SchemaVersionError,
    canonical_json,
    fingerprint_of,
)


@dataclass(frozen=True)
class JobKey:
    """Identity of one (case, tool) job; the content address of its record.

    ``profile_name`` is carried for human-readable listings only and is
    excluded from the fingerprint -- two profiles with the same *values* and
    different names are the same work.
    """

    case_key: str
    tool: str
    source_hash: str
    tool_fingerprint: str
    profile_fingerprint: str
    budget_fingerprint: str = ""
    seed: Optional[int] = None
    measure_lines: bool = False
    domain: str = ""
    profile_name: str = ""

    def fingerprint(self) -> str:
        payload = dataclasses.asdict(self)
        payload.pop("profile_name")
        return fingerprint_of(payload)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobKey":
        return cls(**data)


class RunStore:
    """Append-only JSON-lines store of completed experiment jobs.

    Thread-safe for concurrent :meth:`put`/:meth:`get` (one lock guards the
    in-memory index and the file append), so thread-mode case workers can
    checkpoint jobs as they complete.  Appends are additionally guarded by an
    advisory ``fcntl`` lock on ``runs.jsonl`` (where available), so separate
    *processes* -- a running daemon plus a concurrent ``repro run``, or two
    CLI invocations pointed at the same store -- can append to one store
    without tearing or merging each other's lines.  Each writer's in-memory
    index only reflects records it loaded or wrote itself; cross-process
    visibility requires reopening the store (the service layer therefore
    funnels all writes of one service through its own process).
    """

    def __init__(self, root: "Path | str | None" = None):
        self.root = Path(root) if root is not None else None
        self._records: dict[str, dict] = {}
        self._keys: dict[str, JobKey] = {}
        self._lock = threading.Lock()
        self._handle = None
        if self.root is not None:
            self._check_meta()
            self._load()

    # -- disk layout --------------------------------------------------------

    @property
    def persistent(self) -> bool:
        return self.root is not None

    @property
    def runs_path(self) -> Optional[Path]:
        return self.root / "runs.jsonl" if self.root is not None else None

    @property
    def meta_path(self) -> Optional[Path]:
        return self.root / "meta.json" if self.root is not None else None

    def _check_meta(self) -> None:
        """Validate an existing ``meta.json``.  Creation is deferred to the
        first :meth:`put` (see :meth:`_materialize`) so opening a store for
        reading never writes into the target directory."""
        meta_path = self.meta_path
        if not meta_path.exists():
            return
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError as exc:
            raise SchemaVersionError(f"unreadable store metadata at {meta_path}: {exc}") from exc
        version = meta.get("schema")
        if version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"store at {self.root} has schema version {version!r}; this code "
                f"reads version {SCHEMA_VERSION} (run `repro clean --store {self.root}`)"
            )

    def _materialize(self) -> None:
        """Create the store directory and ``meta.json``, open the append
        handle (first write only).

        Also the only point where a torn tail is physically truncated:
        loading merely skips it, so opening a store for reading never
        writes, while the first append cannot concatenate onto torn bytes.
        Concurrent writers race here safely: the directory create is
        idempotent, ``meta.json`` is written atomically (temp file +
        ``os.replace``, so a reader never sees a half-written file), and the
        torn-tail truncate runs under the append handle's advisory lock.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if not self.meta_path.exists():
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".meta-", suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps({"schema": SCHEMA_VERSION}) + "\n")
            os.replace(tmp, self.meta_path)
        self._handle = self.runs_path.open("a", encoding="utf-8")
        self._flock(self._handle)
        try:
            self._truncate_torn_tail()
        finally:
            self._funlock(self._handle)

    @staticmethod
    def _flock(handle) -> None:
        """Take the advisory inter-process lock on ``handle`` (no-op where
        ``fcntl`` is unavailable; the instance lock still serializes threads)."""
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)

    @staticmethod
    def _funlock(handle) -> None:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _truncate_torn_tail(self) -> None:
        """Drop a partial final line left by a process killed mid-append.

        Without this, the next append would concatenate onto the torn tail
        and produce one unparseable merged line -- silently losing the first
        record checkpointed after a resume.  Called from :meth:`_materialize`
        (write path) only; :meth:`_load` tolerates the torn tail in memory.
        """
        runs_path = self.runs_path
        data = runs_path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        cut = data.rfind(b"\n") + 1  # 0 when no complete line survives
        with runs_path.open("r+b") as handle:
            handle.truncate(cut)

    def _load(self) -> None:
        runs_path = self.runs_path
        if not runs_path.exists():
            return
        with runs_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A process killed mid-append leaves one truncated final
                    # line; every earlier record is intact.  Skip, do not die:
                    # tolerating the torn tail is what makes resume work.
                    continue
                if record.get("schema") != SCHEMA_VERSION:
                    raise SchemaVersionError(
                        f"record in {runs_path} has schema {record.get('schema')!r}; "
                        f"expected {SCHEMA_VERSION}"
                    )
                key = JobKey.from_dict(record["key"])
                fp = record.get("fingerprint") or key.fingerprint()
                self._records[fp] = record["payload"]
                self._keys[fp] = key

    # -- core API -----------------------------------------------------------

    def get(self, key: JobKey) -> Optional[dict]:
        """The stored payload for exactly this key, or ``None``."""
        return self._records.get(key.fingerprint())

    def get_satisfying(self, key: JobKey) -> Optional[dict]:
        """Like :meth:`get`, but a line-measuring record satisfies a job that
        does not need line coverage (its summary is a strict superset)."""
        payload = self.get(key)
        if payload is None and not key.measure_lines:
            payload = self.get(dataclasses.replace(key, measure_lines=True))
        return payload

    def put(self, key: JobKey, payload: dict) -> None:
        """Record a completed job and checkpoint it to disk immediately."""
        fp = key.fingerprint()
        line = canonical_json(
            {"schema": SCHEMA_VERSION, "fingerprint": fp, "key": key.to_dict(), "payload": payload}
        )
        with self._lock:
            self._records[fp] = payload
            self._keys[fp] = key
            if self.root is not None:
                if self._handle is None:
                    self._materialize()
                # One flock-guarded write+flush per record: the O_APPEND
                # handle always lands at the current end of file, and the
                # advisory lock keeps a concurrent writer in another process
                # from interleaving bytes within our line.
                self._flock(self._handle)
                try:
                    self._handle.write(line + "\n")
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                finally:
                    self._funlock(self._handle)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: JobKey) -> bool:
        return key.fingerprint() in self._records

    def records(self) -> Iterator[tuple[JobKey, dict]]:
        """All (key, payload) pairs, in insertion order."""
        yield from ((self._keys[fp], payload) for fp, payload in self._records.items())

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def clear(self) -> int:
        """Drop every record (and the backing file).  Returns the count dropped."""
        with self._lock:
            dropped = len(self._records)
            self._records.clear()
            self._keys.clear()
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            if self.root is not None and self.runs_path.exists():
                self.runs_path.unlink()
        return dropped

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
