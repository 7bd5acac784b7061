"""Content-keyed on-disk cache of instrumented units and function sources.

Instrumenting a function costs a tokenize (``inspect.getsource``), the AST
pass, the descendant analysis, ``ast.unparse`` and ``compile``: about 0.3 s
for the 40 suite entries, paid again by every process.  This module keeps
the results in ``native_cache_dir() / "instrumented"``, so a later process
loads them instead of recomputing them:

* a *unit* entry (written by :func:`repro.instrument.program.instrument`)
  holds one target function's dedented source, compiled code object,
  conditionals, descendant analysis and unparsed source;
* a *source* entry (:func:`function_source`) holds ``inspect.getsource`` of
  one function, which the native kernel digest hashes for every helper;
* a *variant* entry (written by
  :func:`repro.instrument.specialize.specialized_unit`) holds the compiled
  code of one unit's mask-generic specialization: at most one per unit.

An entry's key (:func:`entry_key`) is a sha256 over everything its value
depends on: the sha256 of the bytes of the function's source file, read on
every lookup (content, not mtime, so an edited file misses even within one
process); the function's ``__qualname__`` and ``co_firstlineno``; the
caller's parameters; the bytes of the instrumenter's own modules
(:data:`TOOLCHAIN`, read once per process);
``importlib.util.MAGIC_NUMBER`` and the interpreter version.  A hit
therefore never calls ``inspect.getsource``.  A function without a readable
``.py`` file (exec'd or interactive code) has no key: it takes the cold
path and writes nothing.  A variant's key (:func:`variant_key`) is over
content alone: the unit's source digest, function name and start label,
the bytes of the modules a variant bakes in (:data:`VARIANT_TOOLCHAIN`),
and the interpreter.

Values are ``marshal`` version 2 data, which has no back-references, so two
threads or processes writing one key write the same bytes; an entry is
written to a hidden temp file and published with ``os.replace``.  Each file
starts with the sha256 of its payload: a truncated or corrupt entry reads as
a miss and is overwritten.  An unwritable directory keeps the cold path,
silently.  The directory is FIFO-bounded by mtime
(:data:`DISK_ENTRIES_MAX`) and temp files of killed writers are pruned.
Loading an entry executes marshalled code, so the directory has the trust
boundary of the shared objects its parent directory holds, which are loaded
with ``dlopen``: only its owner may write it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import inspect
import marshal
import os
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Optional

from repro.instrument.native.cache import native_cache_dir

#: FIFO bound on the entries on disk.  The 40 suite entries need 128: 50
#: units (the entries and their helper callees), their 50 variants and the
#: 28 helper sources their kernel digests hash.
DISK_ENTRIES_MAX = 4096

#: Seconds after which a hidden temp file belongs to no live writer.
TEMP_STALE_S = 60

#: The instrumenter's modules: their bytes are part of every unit key.
TOOLCHAIN = ("ast_pass.py", "cfg.py", "program.py", "runtime.py", "unit_cache.py")

#: The modules whose output or constants a specialized variant bakes in
#: (``BIG_DISTANCE``, ``DEFAULT_EPSILON``, ``negate_op``): their bytes are
#: part of every variant key.
VARIANT_TOOLCHAIN = ("ast_pass.py", "runtime.py", "specialize.py", "../core/branch_distance.py")

#: The modules a native kernel's C is generated from: their bytes are part
#: of every kernel digest (:func:`repro.instrument.native.kernel.kernel_digest`).
KERNEL_TOOLCHAIN = (
    "native/emit.py",
    "native/c_backend.py",
    "specialize.py",
    "ast_pass.py",
    "runtime.py",
    "../core/branch_distance.py",
)

#: A process prunes the directory at its first write and every this many
#: writes after it.
_PRUNE_EVERY = 64

_SUFFIX = ".entry"
_DIGEST_BYTES = 32

#: The directory the toolchain module names are relative to.
_HERE = Path(__file__).parent

_LOCK = threading.Lock()
_STATS = {"hits": 0, "misses": 0, "writes": 0}


def instrumented_cache_dir() -> Path:
    """The entry directory, under the native kernel cache directory."""
    return native_cache_dir() / "instrumented"


@functools.cache
def _modules_digest(names: tuple) -> Optional[str]:
    """Digest of the named modules' bytes and the interpreter, or ``None``
    when a module file cannot be read (the cache is then off).  Computed
    once per process."""
    hasher = hashlib.sha256()
    hasher.update(importlib.util.MAGIC_NUMBER + sys.version.encode())
    try:
        for name in names:
            hasher.update(name.encode() + b"\0" + (_HERE / name).read_bytes())
    except OSError:
        return None
    return hasher.hexdigest()


def _toolchain_digest() -> Optional[str]:
    return _modules_digest(TOOLCHAIN)


def entry_key(func: Callable, *params) -> Optional[str]:
    """The key of ``func``'s entry under ``params`` (strs and ints), or
    ``None`` when ``func`` has no readable ``.py`` source file.

    Like ``inspect.getsource``, this looks through ``__wrapped__``."""
    toolchain = _toolchain_digest()
    if toolchain is None:
        return None
    try:
        func = inspect.unwrap(func)
    except ValueError:
        return None
    if not inspect.isfunction(func):
        return None
    code = func.__code__
    filename = code.co_filename
    if not (os.path.isabs(filename) and filename.endswith(".py")):
        return None
    try:
        with open(filename, "rb") as handle:
            file_sha = hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None
    parts = (toolchain, file_sha, func.__qualname__, code.co_firstlineno, *params)
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def variant_key(*params) -> Optional[str]:
    """The key of a variant entry under ``params`` (strs and ints), or
    ``None`` when a :data:`VARIANT_TOOLCHAIN` module cannot be read."""
    toolchain = _modules_digest(VARIANT_TOOLCHAIN)
    if toolchain is None:
        return None
    parts = (toolchain, "variant", *params)
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def load_entry(key: str, decode: Callable):
    """``decode`` of the value stored under ``key``, or ``None`` on a miss.

    A missing, truncated or corrupt entry, or one ``decode`` rejects with
    ``ValueError``/``TypeError``, is a miss."""
    path = instrumented_cache_dir() / (key + _SUFFIX)
    try:
        blob = path.read_bytes()
    except OSError:
        blob = b""
    payload = blob[_DIGEST_BYTES:]
    result = None
    if payload and hashlib.sha256(payload).digest() == blob[:_DIGEST_BYTES]:
        try:
            result = decode(marshal.loads(payload))
        except (EOFError, ValueError, TypeError):
            result = None
    with _LOCK:
        _STATS["misses" if result is None else "hits"] += 1
    return result


def store_entry(key: str, value, func: Optional[Callable] = None, *params) -> None:
    """Publish ``value`` as ``key``.

    A unit or source entry passes the ``func`` and ``params`` it was
    computed for: nothing is written when ``key`` is no longer ``func``'s
    key (its file changed after the key was computed, so ``value`` may
    describe the new file).  A content key (:func:`variant_key`) cannot go
    stale and passes no ``func``.  Failures to write are ignored."""
    if func is not None and entry_key(func, *params) != key:
        return
    directory = instrumented_cache_dir()
    payload = marshal.dumps(value, 2)
    tmp = None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{key}.", suffix=".tmp", dir=str(directory))
        with open(fd, "wb") as handle:
            handle.write(hashlib.sha256(payload).digest() + payload)
        os.replace(tmp, directory / (key + _SUFFIX))
    except OSError:
        if tmp is not None:
            _unlink(Path(tmp))
        return
    with _LOCK:
        _STATS["writes"] += 1
        prune = (_STATS["writes"] - 1) % _PRUNE_EVERY == 0
    if prune:
        prune_entries()


def function_source(func: Callable) -> str:
    """``inspect.getsource(func)``, served from the disk cache when warm.

    Raises what ``inspect.getsource`` raises for a function without
    source."""
    key = entry_key(func, "source")
    if key is not None:
        source = load_entry(key, _decode_source)
        if source is not None:
            return source
    source = inspect.getsource(func)
    if key is not None:
        store_entry(key, source, func, "source")
    return source


def _decode_source(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"source entry holds {type(value).__name__}")
    return value


def _unlink(path: Path) -> bool:
    try:
        path.unlink()
    except OSError:
        return False
    return True


def _entry_files(directory: Path) -> list:
    """``(path, stat)`` of every published entry, oldest first (entries a
    concurrent prune removes while listing are skipped)."""
    files = []
    for path in directory.glob("*" + _SUFFIX):
        try:
            files.append((path, path.stat()))
        except FileNotFoundError:
            continue
    files.sort(key=lambda item: item[1].st_mtime)
    return files


def prune_entries() -> int:
    """Delete stale temp files, then evict the oldest entries beyond the
    bound; returns the number evicted."""
    directory = instrumented_cache_dir()
    if not directory.is_dir():
        return 0
    stale = time.time() - TEMP_STALE_S
    for temp in directory.glob(".*"):
        try:
            if temp.stat().st_mtime < stale:
                temp.unlink()
        except OSError:
            continue
    files = _entry_files(directory)
    excess = max(0, len(files) - DISK_ENTRIES_MAX)
    return sum(_unlink(path) for path, _stat in files[:excess])


def instrumented_cache_info() -> dict:
    """Entries and bytes on disk, the bound, and this process's disk hits,
    misses and writes."""
    directory = instrumented_cache_dir()
    files = _entry_files(directory) if directory.is_dir() else []
    with _LOCK:
        stats = dict(_STATS)
    return {
        "entries": len(files),
        "bytes": sum(stat.st_size for _path, stat in files),
        "max_entries": DISK_ENTRIES_MAX,
        **stats,
    }


def reset_instrumented_stats() -> None:
    """Zero this process's hit/miss/write counters (the disk is untouched)."""
    with _LOCK:
        for name in _STATS:
            _STATS[name] = 0


def clean_instrumented_cache() -> int:
    """Remove every entry and temp file; returns the number of entries
    removed."""
    directory = instrumented_cache_dir()
    if not directory.is_dir():
        return 0
    removed = sum(_unlink(path) for path, _stat in _entry_files(directory))
    for temp in directory.glob(".*"):
        _unlink(temp)
    return removed
