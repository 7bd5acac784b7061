"""The on-disk artifact store of the compile tiers.

One directory, :func:`native_cache_dir`, keeps what instrumenting and
compiling produce, so a later process loads it instead of recomputing it.
It holds three kinds of entry:

* a *kernel*, ``<digest>.so`` and the ``<digest>.c`` it was compiled from
  (:func:`repro.instrument.native.cache.compile_kernel`);
* the fused-search *library*, ``local-min-<digest>.so`` and its ``.c``
  (:mod:`repro.instrument.native.local_min`);
* an *entry*, ``<key>.entry``, one marshalled value: a *unit*
  (:func:`repro.instrument.program.instrument`: a function's dedented
  source, code object, conditionals, descendant analysis and unparsed
  source), a *source* (:func:`function_source`, which the kernel digest
  hashes for every helper) or a *variant*
  (:func:`repro.instrument.specialize.specialized_unit`: one unit's
  compiled mask-generic specialization).

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

Entry values are ``marshal`` version 2 data, which has no back-references,
so two threads or processes writing one key write the same bytes.  Each
entry file starts with the sha256 of its payload: a truncated or corrupt
entry reads as a miss and is overwritten.  An unwritable directory keeps
the cold path, silently.

Writers publish by renaming hidden temp files into place
(:func:`publishing`); a lookup opens one path by its key and never lists
the directory.  One listing (:func:`disk_entries`) owns every published
file, a ``.c`` whose ``.so`` is gone included.  On it run one FIFO-by-mtime
bound across kinds (:func:`disk_max`), applied at a process's first write
and every :data:`_PRUNE_EVERY` writes after together with the deletion of
hidden files older than :data:`COMPILE_TIMEOUT_S`; :func:`disk_info`; and
:func:`clean_disk`.  A prune can evict a kernel another process just
built; its loader rebuilds it once.

Loading an entry executes marshalled code and loading a kernel runs
``dlopen``: only the directory's owner may write it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import inspect
import marshal
import os
import re
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

#: FIFO bound on the entries on disk, all kinds together.  A suite pass
#: under both compiled tiers publishes 166: 40 kernels, the library and 125
#: unit, variant and helper-source entries.
MAX_ENTRIES = 2048

#: Seconds one compiler invocation may take.  A hidden temp file older
#: than this belongs to no live writer.
COMPILE_TIMEOUT_S = 120

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

#: The names the store publishes: kernels and the library (a ``.so`` and
#: its ``.c``), and entries.
_PUBLISHED = re.compile(r"(?:local-min-)?[0-9a-f]{64}\.(?:so|c)|[0-9a-f]{64}\.entry")

_SUFFIX = ".entry"
_DIGEST_BYTES = 32

#: The directory the toolchain module names are relative to.
_HERE = Path(__file__).parent

_LOCK = threading.Lock()
_STATS = {"hits": 0, "misses": 0, "writes": 0}


def native_cache_dir() -> Path:
    """The store's directory (``$REPRO_NATIVE_CACHE``, else
    ``$XDG_CACHE_HOME/repro/native-kernels`` or
    ``~/.cache/repro/native-kernels``)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "native-kernels"


def disk_max() -> int:
    """The FIFO bound: ``$REPRO_NATIVE_CACHE_MAX`` when it is a positive
    integer, else :data:`MAX_ENTRIES`."""
    try:
        value = int(os.environ.get("REPRO_NATIVE_CACHE_MAX", ""))
    except ValueError:
        return MAX_ENTRIES
    return value if value >= 1 else MAX_ENTRIES


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
    path = native_cache_dir() / (key + _SUFFIX)
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
    payload = marshal.dumps(value, 2)
    try:
        with publishing(key, _SUFFIX) as (temp,):
            Path(temp).write_bytes(hashlib.sha256(payload).digest() + payload)
    except OSError:
        pass


@contextlib.contextmanager
def publishing(key: str, *suffixes: str):
    """Yield one hidden temp file per suffix for the caller to fill, then
    rename each to ``<key><suffix>``, in order, as one write of this
    process; the write prunes the directory on the shared trigger.  When
    the block or a rename raises, the temp files are deleted and the
    exception propagates (``OSError`` for an unusable directory)."""
    directory = native_cache_dir()
    temps = []
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for suffix in suffixes:
            # mkstemp names: two threads of one process may write one key.
            fd, temp = tempfile.mkstemp(prefix=f".{key}.", suffix=suffix, dir=str(directory))
            os.close(fd)
            temps.append(temp)
        yield temps
        for temp, suffix in zip(temps, suffixes):
            os.replace(temp, directory / (key + suffix))
    except BaseException:
        remove_files(*temps)
        raise
    with _LOCK:
        _STATS["writes"] += 1
        prune = (_STATS["writes"] - 1) % _PRUNE_EVERY == 0
    if prune:
        prune_disk()


def remove_files(*paths) -> None:
    """Delete ``paths``; a file that is already gone is fine."""
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass


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


class DiskEntry(NamedTuple):
    """One published entry: its kind (``kernel``, ``library`` or
    ``entry``), its file name without suffix, its files, their total size
    and the newest mtime among them."""

    kind: str
    name: str
    paths: tuple
    size: int
    mtime: float


def _kind(name: str) -> str:
    if name.endswith(_SUFFIX):
        return "entry"
    return "library" if name.startswith("local-min-") else "kernel"


def _scan(directory: Path) -> tuple[list, list]:
    """The published entries in ``directory``, oldest first, and its hidden
    temp files as ``(path, mtime)``.  A file a concurrent writer removes
    between the listing and its ``stat`` is skipped."""
    try:
        names = os.listdir(directory)
    except OSError:
        return [], []
    files: dict = {}
    temps = []
    for name in names:
        hidden = name.startswith(".")
        if not (hidden or _PUBLISHED.fullmatch(name)):
            continue
        path = directory / name
        try:
            stat = path.stat()
        except OSError:
            continue
        if hidden:
            temps.append((path, stat.st_mtime))
        else:
            files.setdefault((_kind(name), path.stem), []).append((path, stat))
    entries = [
        DiskEntry(kind, stem, tuple(path for path, _stat in group),
                  sum(stat.st_size for _path, stat in group),
                  max(stat.st_mtime for _path, stat in group))
        for (kind, stem), group in files.items()
    ]
    entries.sort(key=lambda entry: entry.mtime)
    return entries, temps


def disk_entries() -> list:
    """Every published entry of the store, oldest first."""
    return _scan(native_cache_dir())[0]


def prune_disk() -> int:
    """Delete the temp files of killed writers, then evict the oldest
    entries beyond :func:`disk_max`, whatever their kind; returns the
    number evicted."""
    entries, temps = _scan(native_cache_dir())
    stale = time.time() - COMPILE_TIMEOUT_S
    remove_files(*(path for path, mtime in temps if mtime < stale))
    evicted = entries[:max(0, len(entries) - disk_max())]
    for entry in evicted:
        remove_files(*entry.paths)
    return len(evicted)


def clean_disk() -> int:
    """Remove every entry and temp file; returns the number of entries
    removed."""
    entries, temps = _scan(native_cache_dir())
    for entry in entries:
        remove_files(*entry.paths)
    remove_files(*(path for path, _mtime in temps))
    return len(entries)


def disk_info() -> dict:
    """The store on disk and this process's use of it: the entries and
    bytes of every kind together and of each kind
    (``kernel``, ``library``, ``entry``), the temp files, the bound, this
    process's entry lookups (``hits``, ``misses``) and its writes of every
    kind."""
    entries, temps = _scan(native_cache_dir())
    kinds = {kind: {"entries": 0, "bytes": 0} for kind in ("kernel", "library", "entry")}
    for entry in entries:
        kinds[entry.kind]["entries"] += 1
        kinds[entry.kind]["bytes"] += entry.size
    with _LOCK:
        stats = dict(_STATS)
    return {
        "entries": len(entries),
        "bytes": sum(entry.size for entry in entries),
        "temps": len(temps),
        "max_entries": disk_max(),
        "kinds": kinds,
        **stats,
    }


def reset_disk_stats() -> None:
    """Zero this process's hit/miss/write counters (the disk is untouched)."""
    with _LOCK:
        for name in _STATS:
            _STATS[name] = 0
