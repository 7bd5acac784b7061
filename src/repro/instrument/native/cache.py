"""Compiler discovery and the content-addressed shared-object cache.

Kernels are compiled out-of-process with the system C compiler into a
cache directory keyed by a sha256 digest of everything that affects the
generated code: per-unit ``(source sha256, function, start label)`` triples,
the helpers and globals the units read, the Def. 4.1 epsilon the C bakes
in, the backend name, the compiler version, the compile flags, the
codegen ABI version and the bytes of the modules the C is generated from
(see :func:`repro.instrument.native.kernel.kernel_digest`;
the saturation mask is a runtime argument, so it is not part of the key).
Identical programs reuse the ``.so`` across processes and runs: a warm
request computes the digest and loads ``<digest>.so`` directly, checking the
kernel's exported ``sp_meta`` shape instead of re-emitting its C source (see
:mod:`repro.instrument.native.kernel`).  The directory is FIFO-bounded by
mtime like the in-memory compiled caches; builds write hidden
``.<digest>.*`` temp files and rename them into place, so listing and
pruning skip dot-prefixed names and tolerate files that vanish under a
concurrent builder.  Temp files older than :data:`COMPILE_TIMEOUT_S` are
leftovers of killed builds and are pruned.  A process that started the
background compiler finishes its queued builds before it exits, so a kernel
requested late in one run is on disk for the next; a process worker also
finishes them at the end of each job.
"""

from __future__ import annotations

import atexit
import multiprocessing.util
import os
import queue
import shutil
import subprocess
import tempfile
import threading
import time
from pathlib import Path

#: Bump when the entry ABI changes (the kernel digest already covers the
#: emitter's and backend's bytes, so a codegen change alone needs no bump).
#: 2: sp_batch_mt threaded entry + in/out cov accumulator + restrict loop.
#: 3: exported ``sp_meta`` constant (ABI, arity, n_words, bail/freeze sites).
#: 4: adopted helpers emitted against their own module globals; the digest
#:    covers helper sources and the global constants the code names.
#: 5: dead values sliced away, huge ints masked exactly; ``sp_entry`` and
#:    ``bail_out`` report the bail site, ``sp_bail_reasons`` names each.
#: 6: int ``+ - *`` carry an overflow flag; an unmasked overflowed value bails.
#: 7: one kernel per program: the saturation mask is a runtime argument of
#:    every entry, every site writes its covered bit, and ``sp_entry``
#:    reports the last executed conditional.
ABI_VERSION = 7

#: Default upper bound on cached shared objects on disk (each entry keeps
#: its .c source next to the .so for debuggability).  A kernel serves every
#: mask of its program, so one ``default``-profile seed needs one kernel per
#: suite entry and this keeps many source revisions warm.  Overridable per
#: process via ``$REPRO_NATIVE_CACHE_MAX`` — see :func:`disk_cache_max`.
DISK_CACHE_MAX = 1024

#: Seconds one compiler invocation may take.  A hidden temp file older
#: than this belongs to no live build.
COMPILE_TIMEOUT_S = 120

_CC_LOCK = threading.Lock()
_CC_STATE: dict = {
    "probed": False,
    "cc": None,
    "version": None,
    "error": None,
    "probes": 0,
}


class NativeUnavailable(RuntimeError):
    """The native tier cannot be used; callers degrade to the scalar tier.

    This is the *permanent* failure (no compiler, non-emittable program,
    failed build) — distinct from the transient :class:`NativeCompiling`."""


class NativeCompiling(RuntimeError):
    """Transient: the kernel's background build has not finished yet.

    Callers serve the specialized tier for now and poll
    :func:`background_ready` to pick the kernel up at the next epoch
    boundary.  Never cached negatively."""

    def __init__(self, digest: str):
        super().__init__(f"native kernel {digest[:12]}… still compiling")
        self.digest = digest


#: The compiler flags of every build (kernels and the fused-search library);
#: the content digests of both cover them.
CFLAGS = ("-O2", "-fPIC", "-shared", "-std=c99", "-ffp-contract=off", "-pthread")


def disk_cache_max() -> int:
    """The FIFO bound on on-disk kernels (``$REPRO_NATIVE_CACHE_MAX``)."""
    override = os.environ.get("REPRO_NATIVE_CACHE_MAX", "").strip()
    if override:
        try:
            value = int(override)
        except ValueError:
            return DISK_CACHE_MAX
        if value >= 1:
            return value
    return DISK_CACHE_MAX


def _probe_cc() -> None:
    """Discover the compiler once per process, caching failure too.

    Both outcomes latch: a compiler-less host pays the $REPRO_CC/cc/gcc/
    clang PATH walk exactly once, and every later ``find_cc`` raises the
    stored error without touching the filesystem."""
    with _CC_LOCK:
        if _CC_STATE["probed"]:
            return
        _CC_STATE["probed"] = True
        _CC_STATE["probes"] += 1
        candidates = []
        env_cc = os.environ.get("REPRO_CC")
        if env_cc:
            candidates.append(env_cc)
        candidates += ["cc", "gcc", "clang"]
        for candidate in candidates:
            path = shutil.which(candidate)
            if path is None:
                continue
            try:
                proc = subprocess.run(
                    [path, "--version"],
                    capture_output=True,
                    text=True,
                    timeout=20,
                )
            except (OSError, subprocess.SubprocessError):
                continue
            if proc.returncode == 0 and proc.stdout:
                _CC_STATE["cc"] = path
                _CC_STATE["version"] = proc.stdout.splitlines()[0].strip()
                return
        _CC_STATE["error"] = "no C compiler found (cc/gcc/clang)"


def find_cc() -> tuple[str, str]:
    """Return ``(compiler path, version line)`` or raise NativeUnavailable."""
    _probe_cc()
    if _CC_STATE["cc"] is None:
        raise NativeUnavailable(_CC_STATE["error"])
    return _CC_STATE["cc"], _CC_STATE["version"]


def cc_available() -> bool:
    _probe_cc()
    return _CC_STATE["cc"] is not None


def cc_version() -> str | None:
    _probe_cc()
    return _CC_STATE["version"]


def native_cache_dir() -> Path:
    """The on-disk kernel cache directory (``REPRO_NATIVE_CACHE`` override)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "native-kernels"


def _kernel_files(directory: Path) -> list:
    """``(path, stat)`` of every finished kernel in ``directory``, oldest first.

    Hidden ``.<digest>.*.so`` names are builds still in flight (pathlib's
    ``*`` matches them) and are skipped; a kernel that a concurrent process
    prunes between the listing and its ``stat`` is skipped too."""
    files = []
    for so_path in directory.glob("*.so"):
        if so_path.name.startswith("."):
            continue
        try:
            files.append((so_path, so_path.stat()))
        except FileNotFoundError:
            continue
    files.sort(key=lambda item: item[1].st_mtime)
    return files


def _prune_disk_cache(directory: Path) -> int:
    """FIFO-by-mtime bound on the number of cached kernels; also deletes
    the hidden temp files of builds killed before their rename."""
    stale = time.time() - COMPILE_TIMEOUT_S
    for temp in directory.glob(".*"):
        if temp.suffix not in (".c", ".so"):
            continue
        try:
            if temp.stat().st_mtime < stale:
                temp.unlink()
        except FileNotFoundError:
            continue
    bound = disk_cache_max()
    sos = [so_path for so_path, _stat in _kernel_files(directory)]
    evicted = 0
    while len(sos) - evicted > bound:
        discard_kernel(sos[evicted])
        evicted += 1
    return evicted


def compile_kernel(c_source: str, digest: str) -> Path:
    """Compile ``c_source`` into ``<digest>.so``, reusing a cached build.

    The write is atomic (temp file + rename), so concurrent builders of the
    same digest race benignly."""
    cc, _version = find_cc()
    directory = native_cache_dir()
    so_path = directory / f"{digest}.so"
    if so_path.exists():
        return so_path
    directory.mkdir(parents=True, exist_ok=True)
    c_path = directory / f"{digest}.c"
    # mkstemp for both temp files: the same digest can be compiled
    # concurrently by the background worker and a blocking caller in one
    # process, so pid-keyed names would collide.
    fd_c, tmp_c_name = tempfile.mkstemp(suffix=".c", prefix=f".{digest}.",
                                        dir=str(directory))
    with open(fd_c, "w") as tmp_c_file:
        tmp_c_file.write(c_source)
    tmp_c = Path(tmp_c_name)
    fd, tmp_so = tempfile.mkstemp(suffix=".so", prefix=f".{digest}.",
                                  dir=str(directory))
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp_so, str(tmp_c), "-lm"],
            capture_output=True,
            text=True,
            timeout=COMPILE_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        _cleanup(tmp_c, tmp_so)
        raise NativeUnavailable(f"compiler invocation failed: {exc}") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        _cleanup(tmp_c, tmp_so)
        raise NativeUnavailable(f"compilation failed:\n{tail}")
    os.replace(tmp_c, c_path)
    os.replace(tmp_so, so_path)
    _prune_disk_cache(directory)
    return so_path


def discard_kernel(so_path: Path) -> None:
    """Delete one cached kernel and its C source (missing files are fine)."""
    _cleanup(so_path, so_path.with_suffix(".c"))


def _cleanup(*paths) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass


# --- Background (non-blocking) compilation ---------------------------------
#
# Lazily-started daemon workers (BG_WORKERS of them) drain a queue of
# (c_source, digest) jobs through compile_kernel().  Jobs are
# de-duplicated by digest: N concurrent requests for the same kernel
# enqueue one build.  Outcomes are kept per digest — ("done", path) or
# ("failed", NativeUnavailable) — so pollers resolve with a dict lookup,
# not a recompile.

#: Background compiler threads: two builds overlap when the process may run
#: on a second CPU (a cold suite pass queues one kernel per program, and
#: the one that is still evaluating on the specialized tier holds a CPU).
BG_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else (os.cpu_count() or 1))

_BG_LOCK = threading.Lock()
_BG_JOBS: dict = {}  # digest -> ("pending",) | ("done", Path) | ("failed", exc)
_BG_STATE: dict = {
    "threads": (),
    "queue": None,
    "drain_pid": None,
    "submitted": 0,
    "compiled": 0,
    "failed": 0,
}


def _bg_worker() -> None:
    jobs = _BG_STATE["queue"]
    while True:
        c_source, digest = jobs.get()
        try:
            path = compile_kernel(c_source, digest)
            outcome = ("done", path)
        except NativeUnavailable as exc:
            outcome = ("failed", exc)
        except Exception as exc:  # the worker must outlive any job
            # An unexpected error must not kill the thread: the digest
            # would stay "pending" forever and pin its callers to the
            # specialized tier.  Record it as a permanent failure, keeping
            # the original traceback as the cause.
            failure = NativeUnavailable(f"background compile failed: {exc!r}")
            failure.__cause__ = exc
            outcome = ("failed", failure)
        with _BG_LOCK:
            _BG_JOBS[digest] = outcome
            _BG_STATE["compiled" if outcome[0] == "done" else "failed"] += 1
        jobs.task_done()


def _ensure_bg_worker() -> None:
    # Caller holds _BG_LOCK.
    if not any(worker.is_alive() for worker in _BG_STATE["threads"]):
        _BG_STATE["queue"] = _BG_STATE["queue"] or queue.Queue()
        workers = tuple(
            threading.Thread(target=_bg_worker, name="repro-native-cc", daemon=True)
            for _ in range(BG_WORKERS)
        )
        _BG_STATE["threads"] = workers
        for worker in workers:
            worker.start()
        if _BG_STATE["drain_pid"] != os.getpid():
            # The workers are daemon threads, killed mid-build at exit.  A
            # main process drains through atexit; a multiprocessing child
            # leaves through os._exit after running only its exit
            # finalizers, so it drains through one of those.
            _BG_STATE["drain_pid"] = os.getpid()
            atexit.register(finish_background_compiles)
            multiprocessing.util.Finalize(None, finish_background_compiles, exitpriority=0)


def finish_background_compiles() -> None:
    """Wait until this process's queued background builds have landed.

    Runs at exit, so a kernel requested late in one process is on disk for
    the next one instead of dying with its build, and at the end of every
    job a process worker runs (:func:`repro.service.jobs.execute_job_remote`),
    so no build outlives the job that queued it.  A forked child inherits
    the parent's thread objects, dead in the child: nothing to wait for."""
    workers = _BG_STATE["threads"]
    if not any(worker.is_alive() for worker in workers):
        return
    jobs = _BG_STATE["queue"]
    with jobs.all_tasks_done:
        while jobs.unfinished_tasks and any(worker.is_alive() for worker in workers):
            jobs.all_tasks_done.wait(0.1)


def compile_kernel_background(c_source: str, digest: str) -> Path:
    """Non-blocking :func:`compile_kernel`: return the ``.so`` if it is
    already built, else hand the build to the background worker and raise.

    Raises :class:`NativeCompiling` while the build is in flight (submitting
    at most one job per digest) and the stored :class:`NativeUnavailable`
    once a build has failed permanently."""
    so_path = native_cache_dir() / f"{digest}.so"
    if so_path.exists():
        with _BG_LOCK:
            _BG_JOBS.pop(digest, None)
        return so_path
    find_cc()  # no compiler is a permanent failure; fail fast, don't enqueue
    with _BG_LOCK:
        job = _BG_JOBS.get(digest)
        if job is not None:
            if job[0] == "done":
                if job[1].exists():
                    return job[1]
                # The built .so was FIFO-pruned from disk after the job
                # finished: forget the stale outcome and rebuild below.
                del _BG_JOBS[digest]
            elif job[0] == "failed":
                raise job[1]
            else:
                raise NativeCompiling(digest)
        _BG_JOBS[digest] = ("pending",)
        _ensure_bg_worker()
        _BG_STATE["submitted"] += 1
        _BG_STATE["queue"].put((c_source, digest))
    raise NativeCompiling(digest)


def background_ready(digest: str) -> bool:
    """Cheap poll: has the background build for ``digest`` resolved?

    True once the build finished (either outcome) or was never submitted;
    the caller then re-enters the load path, which either gets the kernel
    or the permanent error.  False only while a build is in flight."""
    with _BG_LOCK:
        job = _BG_JOBS.get(digest)
    return job is None or job[0] != "pending"


def background_compile_stats() -> dict:
    """Counters for the background compiler (submitted/compiled/failed)."""
    with _BG_LOCK:
        return {
            "submitted": _BG_STATE["submitted"],
            "compiled": _BG_STATE["compiled"],
            "failed": _BG_STATE["failed"],
            "pending": sum(
                1 for job in _BG_JOBS.values() if job[0] == "pending"
            ),
        }


def wait_for_background(digest: str, timeout: float = 120.0) -> None:
    """Block until the background build for ``digest`` resolves (tests)."""
    deadline = time.monotonic() + timeout
    while not background_ready(digest):
        if time.monotonic() >= deadline:
            raise TimeoutError(f"background build of {digest[:12]} timed out")
        time.sleep(0.005)


def _reset_background_for_tests() -> None:
    """Testing hook: drain in-flight builds and forget recorded outcomes."""
    finish_background_compiles()
    with _BG_LOCK:
        _BG_JOBS.clear()
        _BG_STATE.update({"submitted": 0, "compiled": 0, "failed": 0})


def native_cache_entries() -> list[dict]:
    """Describe the on-disk kernel cache, newest first."""
    directory = native_cache_dir()
    if not directory.is_dir():
        return []
    entries = []
    for so_path, stat in reversed(_kernel_files(directory)):
        entries.append({
            "digest": so_path.stem,
            "size": stat.st_size,
            "mtime": stat.st_mtime,
            "has_source": so_path.with_suffix(".c").exists(),
        })
    return entries


def native_clean_disk_cache() -> int:
    """Remove every cached kernel; returns the number of entries removed."""
    directory = native_cache_dir()
    if not directory.is_dir():
        return 0
    removed = 0
    for so_path, _stat in _kernel_files(directory):
        discard_kernel(so_path)
        removed += 1
    for stray in list(directory.glob(".*")):
        _cleanup(stray)
    return removed


def _reset_cc_probe_for_tests() -> None:
    """Testing hook: force a re-probe (e.g. after patching PATH/REPRO_CC)."""
    with _CC_LOCK:
        _CC_STATE.update(
            {"probed": False, "cc": None, "version": None, "error": None}
        )
