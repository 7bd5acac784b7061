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
leftovers of killed builds and are pruned.  Every build runs in the call
that asks for it and is on disk when that call returns; a cache directory
that cannot be written is a :class:`NativeUnavailable` like a failed build.
"""

from __future__ import annotations

import os
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

    Raised for no compiler, a non-emittable program, a failed build and an
    unusable cache directory."""


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
    same digest race benignly.  A failed build and a cache directory that
    cannot be created or written both raise :class:`NativeUnavailable`."""
    cc, _version = find_cc()
    directory = native_cache_dir()
    so_path = directory / f"{digest}.so"
    if so_path.exists():
        return so_path
    temps = []
    try:
        directory.mkdir(parents=True, exist_ok=True)
        # mkstemp names: two threads of one process may build one digest.
        fd_c, tmp_c = tempfile.mkstemp(suffix=".c", prefix=f".{digest}.",
                                       dir=str(directory))
        temps.append(tmp_c)
        with open(fd_c, "w") as tmp_c_file:
            tmp_c_file.write(c_source)
        fd, tmp_so = tempfile.mkstemp(suffix=".so", prefix=f".{digest}.",
                                      dir=str(directory))
        temps.append(tmp_so)
        os.close(fd)
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp_so, tmp_c, "-lm"],
            capture_output=True,
            text=True,
            timeout=COMPILE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
            raise NativeUnavailable(f"compilation failed:\n{tail}")
        os.replace(tmp_c, directory / f"{digest}.c")
        os.replace(tmp_so, so_path)
    except (OSError, subprocess.SubprocessError) as exc:
        _cleanup(*temps)
        raise NativeUnavailable(f"cannot build {digest[:12]} in {directory}: {exc!r}") from exc
    except NativeUnavailable:
        _cleanup(*temps)
        raise
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


def background_compile_stats() -> dict:
    """All zeros: every build runs in the requesting call, so none is ever
    queued.  Kept only because the benchmark harness still reads its
    ``compiled``, ``failed`` and ``pending`` keys in every pass."""
    return {"submitted": 0, "compiled": 0, "failed": 0, "pending": 0}


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
