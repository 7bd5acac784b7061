"""Compiler discovery and the compile of shared objects into the store.

Kernels and the fused-search library are compiled out-of-process with the
system C compiler, in the call that asks for them, and published into the
on-disk artifact store (:mod:`repro.instrument.unit_cache`).  A kernel is
keyed by a sha256 digest of everything that affects the generated code
(:func:`repro.instrument.native.kernel.kernel_digest`; the saturation mask
is a runtime argument, so it is not part of the key).  Identical programs
reuse the ``.so`` across processes and runs: a warm request computes the
digest and loads ``<digest>.so`` directly, checking the kernel's exported
``sp_meta`` shape instead of re-emitting its C source.  A cache directory
that cannot be written is a :class:`NativeUnavailable` like a failed build.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import threading
from pathlib import Path

from repro.instrument.unit_cache import (
    COMPILE_TIMEOUT_S,
    native_cache_dir,
    publishing,
    remove_files,
)

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
    try:
        with publishing(digest, ".c", ".so") as (tmp_c, tmp_so):
            Path(tmp_c).write_text(c_source)
            proc = subprocess.run(
                [cc, *CFLAGS, "-o", tmp_so, tmp_c, "-lm"],
                capture_output=True,
                text=True,
                timeout=COMPILE_TIMEOUT_S,
            )
            if proc.returncode != 0:
                tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
                raise NativeUnavailable(f"compilation failed:\n{tail}")
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeUnavailable(f"cannot build {digest[:12]} in {directory}: {exc!r}") from exc
    return so_path


def discard_kernel(so_path: Path) -> None:
    """Delete one cached kernel or library and its C source (missing files
    are fine)."""
    remove_files(so_path, so_path.with_suffix(".c"))


def background_compile_stats() -> dict:
    """All zeros: every build runs in the requesting call, so none is ever
    queued.  Kept only because the benchmark harness still reads its
    ``compiled``, ``failed`` and ``pending`` keys in every pass."""
    return {"submitted": 0, "compiled": 0, "failed": 0, "pending": 0}


def _reset_cc_probe_for_tests() -> None:
    """Testing hook: force a re-probe (e.g. after patching PATH/REPRO_CC)."""
    with _CC_LOCK:
        _CC_STATE.update(
            {"probed": False, "cc": None, "version": None, "error": None}
        )
