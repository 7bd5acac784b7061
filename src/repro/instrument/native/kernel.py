"""Build, cache and run native penalty kernels (``PENALTY_NATIVE``).

:func:`build_native_kernel` asks for the kernel of one program under one
saturation mask by its content digest (:func:`kernel_digest`).  A *warm*
request -- ``<digest>.so`` already in the on-disk cache -- loads the shared
object with :mod:`ctypes` and reads the kernel's arity, covered-word count
and bail/freeze site counts from its exported ``sp_meta`` constant; it runs
neither the emitter nor the C renderer.  A shared object that fails to load,
lacks ``sp_meta`` or disagrees with the program (ABI version, arity,
``n_words``) is deleted and rebuilt.  A *cold* request builds the scalar
:class:`~repro.instrument.program.SpecializedVariant` (its namespace
supplies the constants the emitter folds), emits the typed IR, renders it
to C99 and compiles it into the disk cache, in the foreground or on the
background worker.  Loaded kernels are cached module-wide per digest with
the same hit/miss/evict bookkeeping as the specialized and batched caches.

The specialized variant is also the per-row bail target.  It is built
lazily, at a kernel's first bail, so a kernel that never bails costs no
variant build on the warm path.

The generated code keeps all state in a per-call stack context, so one
loaded kernel is safely shared across threads; worker processes re-open the
same ``.so`` from disk without recompiling.  The per-call ctypes buffers
live on the per-program :class:`NativeKernel` (programs are one per
thread), never on the shared :class:`_LoadedKernel`.
"""

from __future__ import annotations

import ctypes
import hashlib
import inspect
import struct
import sys
import threading
import types
import weakref

import _ctypes
import numpy as np

from repro.core.branch_distance import DEFAULT_EPSILON
from repro.instrument.native.c_backend import (
    BACKEND_NAME,
    SP_META_FIELDS,
    render_c,
)
from repro.instrument.native.cache import (
    ABI_VERSION,
    NativeUnavailable,
    compile_kernel,
    compile_kernel_background,
    cc_version,
    discard_kernel,
    find_cc,
    native_cache_dir,
    native_cache_entries,
    opt_tier,
)
from repro.instrument.native.emit import (
    FOLD_TYPES,
    baked_form,
    covered_words,
    emit_program_ir,
    global_value,
)

_C_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_C_U64_P = ctypes.POINTER(ctypes.c_uint64)
_C_U8_P = ctypes.POINTER(ctypes.c_ubyte)


class _LoadedKernel:
    """One compiled-and-loaded shared object (immutable, thread-shareable).

    The shape fields come from the kernel's own ``sp_meta`` constant."""

    __slots__ = ("digest", "so_path", "lib", "sp_entry", "sp_batch",
                 "sp_batch_mt", "arity", "n_words", "bail_sites",
                 "freeze_sites")

    def __init__(self, digest, so_path, lib, meta):
        self.digest = digest
        self.so_path = so_path
        self.lib = lib
        fields = dict(zip(SP_META_FIELDS, meta))
        self.arity = fields["arity"]
        self.n_words = fields["n_words"]
        self.bail_sites = fields["bail_sites"]
        self.freeze_sites = fields["freeze_sites"]
        # The scalar entry takes raw buffer addresses: NativeKernel.scalar
        # passes the addresses of its own long-lived buffers, which skips
        # the per-call pointer conversions of typed arguments.
        entry = lib.sp_entry
        entry.restype = ctypes.c_int
        entry.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
        batch = lib.sp_batch
        batch.restype = None
        batch.argtypes = [_C_DOUBLE_P, ctypes.c_longlong, _C_DOUBLE_P,
                          _C_U64_P, _C_U8_P]
        batch_mt = lib.sp_batch_mt
        batch_mt.restype = None
        batch_mt.argtypes = [_C_DOUBLE_P, ctypes.c_longlong,
                             ctypes.c_longlong, _C_DOUBLE_P, _C_U64_P,
                             _C_U8_P]
        self.sp_entry = entry
        self.sp_batch = batch
        self.sp_batch_mt = batch_mt


def kernel_digest(program, saturated_mask: int, epsilon: float) -> str:
    """Content digest of one native kernel build of ``program``.

    Everything that affects the generated machine code participates: the
    per-unit (source sha256, function name, start label) triples, the
    program's :func:`helper_digest`, the saturation mask, epsilon (hex,
    bit-exact), the backend name, the compiler version line, the
    optimization flag tier and the codegen ABI version."""
    _cc, version = find_cc()
    hasher = hashlib.sha256()
    for source, function_name, start_label in program.units:
        source_sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
        hasher.update(f"{source_sha}:{function_name}:{start_label}\n".encode())
    hasher.update(f"helpers={helper_digest(program)}\n".encode())
    hasher.update(f"mask={saturated_mask:x}\n".encode())
    hasher.update(f"eps={float(epsilon).hex()}\n".encode())
    hasher.update(f"backend={BACKEND_NAME}\n".encode())
    hasher.update(f"cc={version}\n".encode())
    hasher.update(f"opt={opt_tier()}\n".encode())
    hasher.update(f"abi={ABI_VERSION}\n".encode())
    return hasher.hexdigest()


def _code_names(code) -> frozenset:
    """Every name a code object (nested code included) looks up: each
    global a body can read as ``name`` and each attribute it can read as
    ``name.attr``."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return frozenset(names)


#: (source sha256, looked-up names) of a helper function, per function object.
_HELPER_SOURCES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _helper_source(func) -> tuple:
    cached = _HELPER_SOURCES.get(func)
    if cached is None:
        try:
            source = inspect.getsource(func)
        except (OSError, TypeError):
            source = ""  # not adoptable: the emitter bails its calls
        cached = (hashlib.sha256(source.encode("utf-8")).hexdigest(),
                  _code_names(func.__code__))
        _HELPER_SOURCES[func] = cached
    return cached


def helper_digest(program) -> str:
    """Digest of what a program's kernel reads beyond its unit sources.

    The emitter adopts the plain functions the units call and bakes in the
    globals they read, each resolved in the globals of the function that
    reads it.  So this hashes the source of every plain function reachable
    by a global name from the units, transitively through each function's
    own ``__globals__``, and the emitter's
    :func:`~repro.instrument.native.emit.baked_form` of every global
    ``name`` those bodies look up and of every ``name.attr`` pair of looked
    up names, resolved by the emitter's own
    :func:`~repro.instrument.native.emit.global_value`.  Pairs the bodies
    never read only over-approximate, which costs a rebuild at worst.
    Cached on the program; helper sources are hashed once per function
    object."""
    cached = program.native_helper_digest
    if cached is not None:
        return cached
    namespace = program.entry.__globals__
    unit_names = {name for _source, name, _label in program.units}
    stack = [(_code_names(namespace[name].__code__), namespace)
             for name in unit_names if inspect.isfunction(namespace.get(name))]
    seen: set = set()
    parts: set = set()
    while stack:
        names, globs = stack.pop()
        module = globs.get("__name__", "?")
        for name in names:
            if name not in globs:
                continue
            value = globs[name]
            form = baked_form(value)
            if form is not None:
                parts.add(f"{module}.{name} {form}")
            if type(value) not in FOLD_TYPES and not isinstance(value, tuple):
                # Attributes of a scalar or a tuple follow from its value.
                for attr in names:
                    form = baked_form(global_value(globs, name, attr))
                    if form is not None:
                        parts.add(f"{module}.{name}.{attr} {form}")
            if not inspect.isfunction(value) or value in seen \
                    or (globs is namespace and name in unit_names):
                continue
            seen.add(value)
            source_sha, helper_names = _helper_source(value)
            parts.add(f"fn {value.__module__}.{value.__qualname__} {source_sha}")
            stack.append((helper_names, value.__globals__))
    digest = hashlib.sha256("\n".join(sorted(parts)).encode("utf-8")).hexdigest()
    program.native_helper_digest = digest
    return digest


#: Module-level loaded-kernel cache: digest -> _LoadedKernel.  Negative
#: results (NativeUnavailable from emission) are cached as the exception
#: instance so a non-emittable program does not re-run the emitter on every
#: epoch.
_NATIVE_CACHE: dict[str, object] = {}
_NATIVE_CACHE_LOCK = threading.Lock()
_NATIVE_CACHE_MAX = 128
_NATIVE_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def native_cache_info() -> dict:
    """Size and hit/miss/evict statistics of the native-kernel cache.

    ``disk_entries`` counts shared objects in the on-disk cache and ``cc``
    is the detected compiler version line (``None`` without a compiler)."""
    with _NATIVE_CACHE_LOCK:
        info = {
            "entries": len(_NATIVE_CACHE),
            "max_entries": _NATIVE_CACHE_MAX,
            **_NATIVE_CACHE_STATS,
        }
    info["disk_entries"] = len(native_cache_entries())
    info["cc"] = cc_version()
    return info


def clear_native_cache() -> None:
    """Drop every loaded kernel and reset the statistics (tests).

    The on-disk shared objects stay; use
    :func:`repro.instrument.native.cache.native_clean_disk_cache` for those.
    """
    with _NATIVE_CACHE_LOCK:
        _NATIVE_CACHE.clear()
        for key in _NATIVE_CACHE_STATS:
            _NATIVE_CACHE_STATS[key] = 0


def _elf_truncated(so_path) -> bool:
    """Is ``so_path`` an ELF object cut short?

    ``dlopen`` maps segments past the end of a truncated file and the
    process dies with SIGBUS on first touch, so a load first checks that
    the segments and the section header table lie within the file.
    Non-ELF files are left to ``dlopen``, which rejects them cleanly."""
    size = so_path.stat().st_size
    with open(so_path, "rb") as handle:
        ident = handle.read(16)
        if ident[:4] != b"\x7fELF":
            return False
        wide = ident[4] == 2  # ELFCLASS64
        order = "<" if ident[5] == 1 else ">"
        try:
            header = struct.unpack(
                order + ("HHIQQQIHHHHHH" if wide else "HHIIIIIHHHHHH"),
                handle.read(48 if wide else 36),
            )
        except struct.error:
            return True
        phoff, shoff = header[4], header[5]
        phentsize, phnum, shentsize, shnum = header[8:12]
        if phoff + phentsize * phnum > size or shoff + shentsize * shnum > size:
            return True
        handle.seek(phoff)
        # (p_offset, p_filesz) positions inside one program header.
        word, offset_at, filesz_at = ("Q", 8, 32) if wide else ("I", 4, 16)
        for _ in range(phnum):
            entry = handle.read(phentsize)
            (offset,) = struct.unpack_from(order + word, entry, offset_at)
            (filesz,) = struct.unpack_from(order + word, entry, filesz_at)
            if offset + filesz > size:
                return True
    return False


def _open(so_path, digest, arity, n_words):
    """``dlopen`` a cached kernel and check its ``sp_meta`` against the
    requesting program.

    Returns ``None`` -- with the handle closed again, so a rebuilt file at
    the same path is really re-read by the next ``dlopen`` -- when the file
    is truncated or does not load, lacks ``sp_meta`` or one of the entry
    points, or was built for another ABI version, arity or covered-word
    count."""
    try:
        if _elf_truncated(so_path):
            return None
        lib = ctypes.CDLL(str(so_path))
    except OSError:
        return None
    try:
        meta = tuple(
            (ctypes.c_longlong * len(SP_META_FIELDS)).in_dll(lib, "sp_meta")
        )
        if meta[:3] == (ABI_VERSION, arity, n_words):
            return _LoadedKernel(digest, so_path, lib, meta)
    except (ValueError, AttributeError):  # missing symbol
        pass
    _ctypes.dlclose(lib._handle)
    return None


def _emit_and_compile(program, digest, saturated_mask, epsilon, wait):
    """The cold path: emit, render and compile one kernel, then load it."""
    namespace = program.specialize(saturated_mask, epsilon).namespace
    ir = emit_program_ir(program.units, program.name, program.arity,
                         program.n_conditionals, namespace, saturated_mask,
                         epsilon)
    if len(ir.entry.params) != program.arity:
        # The kernel reads one double per entry parameter; a signature of
        # another width would misalign every row.
        raise NativeUnavailable(
            f"entry {program.name!r} takes {len(ir.entry.params)} parameters "
            f"but the program's arity is {program.arity}"
        )
    c_source = render_c(ir)
    if wait:
        so_path = compile_kernel(c_source, digest)
    else:
        # Raises NativeCompiling while the background build runs; that
        # transient state is never negatively cached (it is not a
        # NativeUnavailable), so the next poll can pick the kernel up.
        so_path = compile_kernel_background(c_source, digest)
    loaded = _open(so_path, digest, program.arity, ir.n_words)
    if loaded is None:
        # The .so can vanish between the build and the load when a
        # concurrent build FIFO-prunes the directory; rebuild once in the
        # foreground rather than degrading permanently.
        discard_kernel(so_path)
        so_path = compile_kernel(c_source, digest)
        loaded = _open(so_path, digest, program.arity, ir.n_words)
        if loaded is None:
            raise NativeUnavailable(f"kernel {digest[:12]} does not load")
    return loaded


def _load(program, saturated_mask, epsilon, wait: bool = True) -> _LoadedKernel:
    digest = kernel_digest(program, saturated_mask, epsilon)
    with _NATIVE_CACHE_LOCK:
        cached = _NATIVE_CACHE.get(digest)
        if cached is not None:
            _NATIVE_CACHE_STATS["hits"] += 1
        else:
            _NATIVE_CACHE_STATS["misses"] += 1
    if cached is not None:
        if isinstance(cached, NativeUnavailable):
            raise cached
        return cached
    so_path = native_cache_dir() / f"{digest}.so"
    loaded = None
    if so_path.exists():
        loaded = _open(so_path, digest, program.arity,
                       covered_words(program.n_conditionals))
        if loaded is None:
            discard_kernel(so_path)  # stale or corrupt: rebuild below
    if loaded is None:
        try:
            loaded = _emit_and_compile(program, digest, saturated_mask,
                                       epsilon, wait)
        except NativeUnavailable as exc:
            with _NATIVE_CACHE_LOCK:
                _NATIVE_CACHE[digest] = exc
            raise
    with _NATIVE_CACHE_LOCK:
        while len(_NATIVE_CACHE) >= _NATIVE_CACHE_MAX:
            _NATIVE_CACHE.pop(next(iter(_NATIVE_CACHE)))
            _NATIVE_CACHE_STATS["evictions"] += 1
        _NATIVE_CACHE[digest] = loaded
    return loaded


def _mask_of_words(words) -> int:
    """The covered-bit mask of a uint64 word buffer (word 0 lowest)."""
    if sys.byteorder == "little":
        return int.from_bytes(words, "little")  # one C call, any width
    covered = 0
    for word_index, word in enumerate(words):
        covered |= int(word) << (64 * word_index)
    return covered


class NativeKernel:
    """One loaded native evaluator of a program under one saturation mask.

    ``kernel(X)`` has exactly the :class:`~repro.instrument.batch.BatchKernel`
    contract: an ``(N, arity)`` float64 array in, ``(r, covered)`` out, where
    ``r`` is the raw penalty vector (callers clamp) and ``covered`` the union
    covered-bit summary over all rows.  ``kernel(X, n_threads=k)`` evaluates
    the rows on ``k`` native threads with bit-identical results (private
    per-thread coverage partials, merged in thread-index order).  Rows the
    native code flags as bailed (a construct whose bit-exact CPython
    semantics the emitter could not prove) are transparently re-run on the
    scalar specialized variant, so results never depend on the emitter's
    coverage being perfect; that variant is built at the first bail
    (:attr:`variant`) and :attr:`bails` counts the rows re-run on it.
    :meth:`scalar` is the one-row entry point used by ``evaluate``; it
    reuses this instance's ctypes buffers, so a kernel belongs to one
    thread, like its program.
    """

    __slots__ = ("program", "loaded", "saturated_mask", "epsilon", "arity",
                 "mode", "bails", "_variant", "_x", "_r", "_cov", "_addresses",
                 "_unary", "_one_word")

    def __init__(self, program, saturated_mask: int, epsilon: float,
                 loaded: _LoadedKernel):
        self.program = program
        self.loaded = loaded
        self.saturated_mask = saturated_mask
        self.epsilon = epsilon
        self.arity = loaded.arity
        self.mode = "native"
        self.bails = 0
        self._variant = None
        # Per-instance scalar buffers (input row, r, covered words), reused
        # by every call and passed to sp_entry by address.
        self._x = (ctypes.c_double * loaded.arity)()
        self._r = ctypes.c_double(0.0)
        self._cov = (ctypes.c_uint64 * loaded.n_words)()
        self._addresses = (ctypes.addressof(self._x),
                           ctypes.addressof(self._r),
                           ctypes.addressof(self._cov))
        self._unary = loaded.arity == 1
        self._one_word = loaded.n_words == 1

    @property
    def digest(self) -> str:
        return self.loaded.digest

    @property
    def variant(self):
        """The scalar specialized variant rows bail to (built on first use)."""
        variant = self._variant
        if variant is None:
            variant = self.program.specialize(self.saturated_mask, self.epsilon)
            self._variant = variant
        return variant

    def scalar(self, args) -> tuple[float, int]:
        """Evaluate one row, returning ``(r, covered_mask)`` (raw ``r``)."""
        if self._unary:
            self._x[0] = args[0]
        else:
            self._x[:] = args
        if self.loaded.sp_entry(*self._addresses):
            return self._scalar_fallback(args)
        if self._one_word:
            return self._r.value, self._cov[0]
        return self._r.value, _mask_of_words(self._cov)

    def _scalar_fallback(self, args) -> tuple[float, int]:
        self.bails += 1
        variant = self.variant
        _value, r = variant.run(args)
        return r, variant.covered_mask()

    def __call__(self, X, n_threads: int = 1):
        """Evaluate a batch: ``(r, covered)``, ``covered`` being the union
        over this call's rows."""
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        n = X.shape[0]
        if X.shape[1] != self.arity:
            raise ValueError(f"expected {self.arity} columns, got {X.shape[1]}")
        n_words = self.loaded.n_words
        r = np.empty(n, dtype=np.float64)
        # sp_batch_mt ORs into cov without zeroing it, so each call passes
        # a zeroed buffer; results are bit-identical to sp_batch for any
        # thread count.
        cov = np.zeros(n_words, dtype=np.uint64)
        bail = np.empty(n, dtype=np.uint8)
        self.loaded.sp_batch_mt(
            X.ctypes.data_as(_C_DOUBLE_P),
            ctypes.c_longlong(n),
            ctypes.c_longlong(max(1, int(n_threads))),
            r.ctypes.data_as(_C_DOUBLE_P),
            cov.ctypes.data_as(_C_U64_P),
            bail.ctypes.data_as(_C_U8_P),
        )
        covered = _mask_of_words(cov)
        if bail.any():
            for row_index in np.nonzero(bail)[0]:
                row_r, row_cov = self._scalar_fallback(X[row_index].tolist())
                r[row_index] = row_r
                covered |= row_cov
        return r, covered


def build_native_kernel(program, saturated_mask: int,
                        epsilon: float = DEFAULT_EPSILON,
                        wait: bool = True) -> NativeKernel:
    """Build (or fetch from cache) the native kernel for one program/mask.

    A kernel already on disk is loaded by digest without emitting C; the
    specialized bail target is built only at the kernel's first bail.
    Raises :class:`NativeUnavailable` when no C compiler is present, the
    program has no source units, or the emitter cannot produce a useful
    kernel (the entry would bail unconditionally); callers degrade to the
    scalar specialized tier.  With ``wait=False`` a cold compile is handed
    to the background worker and
    :class:`~repro.instrument.native.cache.NativeCompiling` is raised while
    it runs — a transient state callers serve the specialized tier through.
    """
    if not program.units:
        raise NativeUnavailable(
            f"program {program.name!r} carries no source units"
        )
    mask = saturated_mask & ((1 << (2 * program.n_conditionals)) - 1)
    loaded = _load(program, mask, epsilon, wait=wait)
    return NativeKernel(program, mask, epsilon, loaded)


__all__ = [
    "NativeKernel",
    "build_native_kernel",
    "clear_native_cache",
    "helper_digest",
    "kernel_digest",
    "native_cache_dir",
    "native_cache_info",
]
