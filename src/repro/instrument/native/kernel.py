"""Build, cache and run native penalty kernels (``PENALTY_NATIVE``).

:func:`build_native_kernel` asks for the kernel of one program by its
content digest (:func:`kernel_digest`).  A kernel is emitted from the
mask-generic specialization of the program, so it serves every saturation
mask: the mask is a runtime argument of each call, and the digest depends on
the program only.  A *warm* request -- ``<digest>.so`` already
in the on-disk cache -- loads the shared object with :mod:`ctypes` and reads
the kernel's arity, covered-word count and bail/freeze site counts from its
exported ``sp_meta`` constant; it runs neither the emitter nor the C
renderer.  A shared object that fails to load, lacks ``sp_meta`` or
disagrees with the program (ABI version, arity, ``n_words``) is deleted and
rebuilt.  A *cold* request emits the typed IR, renders it to C99 and
compiles it into the disk cache before it returns, so each cold kernel is
emitted once per process.  Loaded kernels are cached module-wide per digest
with the same hit/miss/evict bookkeeping as the specialized and batched
caches.

An evaluation (:meth:`NativeKernel.scalar`, :meth:`NativeKernel.__call__`)
returns ``r`` only.  Every probe site of a kernel writes its covered bit, and
the scalar entry reports the last executed conditional, so one kernel call
also yields a complete coverage outcome (:meth:`NativeKernel.coverage`), the
one place coverage is read from a kernel.  The program's specialized
variant -- the Python form the kernel's C is emitted from -- set to the
kernel's mask is the per-row bail target.  It is built lazily, at a
kernel's first bail, so a kernel that never bails costs no variant build.

The generated code keeps all state in a per-call stack context, so one
loaded kernel is safely shared across threads; worker processes re-open the
same ``.so`` from disk without recompiling.  The per-call ctypes buffers
(input row, mask words, outputs) live on the per-program
:class:`NativeKernel` (programs are one per thread), never on the shared
:class:`_LoadedKernel`.
"""

from __future__ import annotations

import ctypes
import hashlib
import inspect
import os
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
    CFLAGS,
    NativeUnavailable,
    compile_kernel,
    cc_version,
    discard_kernel,
    find_cc,
    native_cache_dir,
)
from repro.instrument.native.emit import (
    FOLD_TYPES,
    OPAQUE_CALLS,
    baked_form,
    covered_words,
    emit_program_ir,
    global_value,
)
from repro.instrument import unit_cache

_C_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_C_U64_P = ctypes.POINTER(ctypes.c_uint64)
_C_I32_P = ctypes.POINTER(ctypes.c_int32)
_C_I64_P = ctypes.POINTER(ctypes.c_int64)


class _LoadedKernel:
    """One compiled-and-loaded shared object (immutable, thread-shareable).

    The shape fields come from the kernel's own ``sp_meta`` constant."""

    __slots__ = ("digest", "so_path", "lib", "sp_entry", "sp_batch",
                 "sp_batch_mt", "arity", "n_words", "bail_sites",
                 "freeze_sites", "_bail_reasons")

    def __init__(self, digest, so_path, lib, meta):
        self.digest = digest
        self.so_path = so_path
        self.lib = lib
        fields = dict(zip(SP_META_FIELDS, meta))
        self.arity = fields["arity"]
        self.n_words = fields["n_words"]
        self.bail_sites = fields["bail_sites"]
        self.freeze_sites = fields["freeze_sites"]
        self._bail_reasons = None
        # The scalar entry takes raw buffer addresses: NativeKernel.scalar
        # passes the addresses of its own long-lived buffers, which skips
        # the per-call pointer conversions of typed arguments.
        entry = lib.sp_entry
        entry.restype = ctypes.c_int
        entry.argtypes = [ctypes.c_void_p] * 5
        batch = lib.sp_batch
        batch.restype = None
        batch.argtypes = [_C_DOUBLE_P, ctypes.c_longlong, _C_U64_P,
                          _C_DOUBLE_P, _C_U64_P, _C_I32_P, _C_I64_P]
        batch_mt = lib.sp_batch_mt
        batch_mt.restype = None
        batch_mt.argtypes = [_C_DOUBLE_P, ctypes.c_longlong,
                             ctypes.c_longlong, _C_U64_P, _C_DOUBLE_P,
                             _C_U64_P, _C_I32_P, _C_I64_P]
        self.sp_entry = entry
        self.sp_batch = batch
        self.sp_batch_mt = batch_mt

    def bail_reason(self, site: int) -> str:
        """The reason text of bail site ``site`` (read from the kernel's
        ``sp_bail_reasons`` at the first bail)."""
        reasons = self._bail_reasons
        if reasons is None:
            array = (ctypes.c_char_p * max(1, self.bail_sites)).in_dll(
                self.lib, "sp_bail_reasons")
            reasons = tuple(array[i].decode() for i in range(self.bail_sites))
            self._bail_reasons = reasons
        return reasons[site]


#: The kernel digest's toolchain part when a toolchain module is unreadable.
_PROCESS_TOKEN = f"unreadable-{os.urandom(16).hex()}"


def kernel_digest(program) -> str:
    """Content digest of the native kernel of ``program``.

    Everything that affects the generated machine code participates: the
    per-unit (source sha256, function name, start label) triples, the
    program's :func:`helper_digest`, the Def. 4.1 epsilon the C bakes in
    (hex, bit-exact), the backend name, the compiler version line, the
    compile flags, the codegen ABI version, the callables the emitter
    may slice away
    (:data:`~repro.instrument.native.emit.OPAQUE_CALLS`) and the bytes of
    the modules the C is generated from
    (:data:`~repro.instrument.unit_cache.KERNEL_TOOLCHAIN`); when one of
    them cannot be read, a token unique to this process stands in, so no
    kernel built by another process is reused.  The saturation mask does
    not: it is a runtime argument of the kernel."""
    _cc, version = find_cc()
    hasher = hashlib.sha256()
    for source, function_name, start_label in program.units:
        source_sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
        hasher.update(f"{source_sha}:{function_name}:{start_label}\n".encode())
    hasher.update(f"helpers={helper_digest(program)}\n".encode())
    hasher.update(f"eps={float(DEFAULT_EPSILON).hex()}\n".encode())
    hasher.update(f"backend={BACKEND_NAME}\n".encode())
    hasher.update(f"cc={version}\n".encode())
    hasher.update(f"cflags={' '.join(CFLAGS)}\n".encode())
    hasher.update(f"abi={ABI_VERSION}\n".encode())
    hasher.update(f"opaque={','.join(OPAQUE_CALLS)}\n".encode())
    toolchain = unit_cache._modules_digest(unit_cache.KERNEL_TOOLCHAIN)
    hasher.update(f"toolchain={toolchain or _PROCESS_TOKEN}\n".encode())
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


def _walk_names(names, globs, skip=frozenset()) -> tuple:
    """The digest parts of the global ``names`` a body looks up in
    ``globs``, and the plain functions among them outside ``skip``."""
    module = globs.get("__name__", "?")
    parts = []
    functions = []
    for name in names:
        if name not in globs:
            continue
        value = globs[name]
        form = baked_form(value)
        if form is not None:
            parts.append(f"{module}.{name} {form}")
        if type(value) not in FOLD_TYPES and not isinstance(value, tuple):
            # Attributes of a scalar or a tuple follow from its value.
            for attr in names:
                form = baked_form(global_value(globs, name, attr))
                if form is not None:
                    parts.append(f"{module}.{name}.{attr} {form}")
        if inspect.isfunction(value) and name not in skip:
            functions.append(value)
    return parts, functions


#: (own digest parts, plain functions it reads) of a helper function, per
#: function object.
_HELPER_SOURCES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _helper_walk(func) -> tuple:
    """A helper's own digest parts -- its source sha256 and what its body
    reads from its module's globals -- and the functions it reaches, walked
    once per function object: helper modules are shared by every program
    that adopts them."""
    cached = _HELPER_SOURCES.get(func)
    if cached is None:
        try:
            source = unit_cache.function_source(func)
        except (OSError, TypeError):
            source = ""  # not adoptable: the emitter bails its calls
        source_sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
        parts, functions = _walk_names(_code_names(func.__code__), func.__globals__)
        parts.append(f"fn {func.__module__}.{func.__qualname__} {source_sha}")
        cached = (frozenset(parts), tuple(functions))
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
    Cached on the program; each helper function is walked once per process
    (its module's globals are read then, so rebinding them later does not
    reach the digests of programs built afterwards), and helper sources
    come from the content-keyed disk cache when it is warm
    (:func:`repro.instrument.unit_cache.function_source`)."""
    cached = program.native_helper_digest
    if cached is not None:
        return cached
    namespace = program.entry.__globals__
    unit_names = frozenset(name for _source, name, _label in program.units)
    parts: set = set()
    stack: list = []
    for name in unit_names:
        unit = namespace.get(name)
        if inspect.isfunction(unit):
            unit_parts, functions = _walk_names(_code_names(unit.__code__), namespace,
                                                skip=unit_names)
            parts.update(unit_parts)
            stack.extend(functions)
    seen: set = set()
    while stack:
        func = stack.pop()
        if func in seen:
            continue
        seen.add(func)
        func_parts, functions = _helper_walk(func)
        parts |= func_parts
        stack.extend(functions)
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
    """Size and hit/miss/evict statistics of the loaded-kernel cache.

    ``cc`` is the detected compiler version line (``None`` without a
    compiler)."""
    with _NATIVE_CACHE_LOCK:
        info = {
            "entries": len(_NATIVE_CACHE),
            "max_entries": _NATIVE_CACHE_MAX,
            **_NATIVE_CACHE_STATS,
        }
    info["cc"] = cc_version()
    return info


def clear_native_cache() -> None:
    """Drop every loaded kernel and reset the statistics (tests).

    The on-disk shared objects stay; use
    :func:`repro.instrument.unit_cache.clean_disk` for those.
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


def _emit_and_compile(program, digest):
    """The cold path: emit, render and compile one kernel, then load it."""
    # The emitter folds the constants of the namespace the units run in.
    ir = emit_program_ir(program.units, program.name, program.arity,
                         program.n_conditionals, program.entry.__globals__)
    if len(ir.entry.params) != program.arity:
        # The kernel reads one double per entry parameter; a signature of
        # another width would misalign every row.
        raise NativeUnavailable(
            f"entry {program.name!r} takes {len(ir.entry.params)} parameters "
            f"but the program's arity is {program.arity}"
        )
    c_source = render_c(ir)
    so_path = compile_kernel(c_source, digest)
    loaded = _open(so_path, digest, program.arity, ir.n_words)
    if loaded is None:
        # The .so can vanish between the build and the load when a
        # concurrent write of any kind FIFO-prunes the store; rebuild once
        # rather than degrading permanently.
        discard_kernel(so_path)
        so_path = compile_kernel(c_source, digest)
        loaded = _open(so_path, digest, program.arity, ir.n_words)
        if loaded is None:
            raise NativeUnavailable(f"kernel {digest[:12]} does not load")
    return loaded


def _load(program) -> _LoadedKernel:
    digest = kernel_digest(program)
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
            loaded = _emit_and_compile(program, digest)
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


def store_mask(words, mask: int) -> None:
    """Write ``mask`` (bit ``2 * c + outcome`` per saturated branch) into a
    uint64 word buffer, word 0 lowest; bits beyond the buffer are dropped."""
    n_words = len(words)
    mask &= (1 << (64 * n_words)) - 1
    if sys.byteorder == "little":
        ctypes.memmove(words, mask.to_bytes(8 * n_words, "little"), 8 * n_words)
        return
    for word_index in range(n_words):
        words[word_index] = (mask >> (64 * word_index)) & 0xFFFFFFFFFFFFFFFF


class NativeKernel:
    """One loaded native evaluator of a program, for every saturation mask.

    Calls evaluate under the mask last set with :meth:`use_mask`
    (:attr:`saturated_mask`; :meth:`InstrumentedProgram.native_kernel
    <repro.instrument.program.InstrumentedProgram.native_kernel>` sets it),
    which the kernel reads from a word buffer at every probe site.
    ``kernel(X)`` has exactly the :class:`~repro.instrument.batch.BatchKernel`
    contract: an ``(N, arity)`` float64 array in, the raw ``(N,)`` penalty
    vector out (callers clamp).  ``kernel(X, n_threads=k)`` evaluates the
    rows on ``k`` native threads with bit-identical results.  Rows the
    native code flags as bailed (a construct whose bit-exact CPython
    semantics the emitter could not prove) are transparently re-run on the
    program's scalar specialized variant under the same mask, so results
    never depend on the emitter being complete.  That variant is built at
    the first bail, :attr:`bails` counts the bailed rows and
    :attr:`bail_reasons` counts them per bail reason (a diagnostic: no
    record, fingerprint or digest reads it).  :meth:`scalar` is the one-row
    entry point used by ``evaluate`` and :meth:`coverage` the one-row
    coverage harvest; both reuse this instance's ctypes buffers, so a kernel
    belongs to one thread, like its program.
    """

    __slots__ = ("program", "loaded", "saturated_mask", "arity",
                 "mode", "bails", "bail_reasons", "_x", "_sat", "_r", "_cov",
                 "_last", "_addresses", "_unary", "_one_word")

    def __init__(self, program, loaded: _LoadedKernel):
        self.program = program
        self.loaded = loaded
        self.arity = loaded.arity
        self.mode = "native"
        self.bails = 0
        self.bail_reasons: dict[str, int] = {}
        # Per-instance scalar buffers (input row, mask words, r, covered
        # words, last conditional), reused by every call and passed to
        # sp_entry by address.
        self._x = (ctypes.c_double * loaded.arity)()
        self._sat = (ctypes.c_uint64 * loaded.n_words)()
        self._r = ctypes.c_double(0.0)
        self._cov = (ctypes.c_uint64 * loaded.n_words)()
        self._last = ctypes.c_int64(-1)
        self._addresses = (ctypes.addressof(self._x),
                           ctypes.addressof(self._sat),
                           ctypes.addressof(self._r),
                           ctypes.addressof(self._cov),
                           ctypes.addressof(self._last))
        self._unary = loaded.arity == 1
        self._one_word = loaded.n_words == 1
        self.saturated_mask = 0

    @property
    def digest(self) -> str:
        return self.loaded.digest

    def use_mask(self, saturated_mask: int) -> None:
        """Evaluate later calls under ``saturated_mask``."""
        if saturated_mask != self.saturated_mask:
            store_mask(self._sat, saturated_mask)
            self.saturated_mask = saturated_mask

    def scalar(self, args) -> float:
        """Evaluate one row, returning its raw ``r``."""
        if self._unary:
            self._x[0] = args[0]
        else:
            self._x[:] = args
        code = self.loaded.sp_entry(*self._addresses)
        if code:
            return self._scalar_fallback(args, code - 1, self.saturated_mask)
        return self._r.value

    def coverage(self, args):
        """Evaluate one row for its coverage outcome.

        Returns ``(r, covered_mask, last)``: the raw ``r``, the covered bits
        of every branch the row took and the covered-bit index ``2 * c +
        outcome`` of the last conditional executed (-1 when none ran) --
        or ``None`` when the row bails (counted like any bail), for the
        caller to re-run on a runtime that records the whole outcome."""
        if self._unary:
            self._x[0] = args[0]
        else:
            self._x[:] = args
        code = self.loaded.sp_entry(*self._addresses)
        if code:
            self._count_bail(code - 1)
            return None
        covered = self._cov[0] if self._one_word else _mask_of_words(self._cov)
        return self._r.value, covered, self._last.value

    def _count_bail(self, site: int) -> None:
        self.bails += 1
        reason = self.loaded.bail_reason(site)
        self.bail_reasons[reason] = self.bail_reasons.get(reason, 0) + 1

    def _scalar_fallback(self, args, site: int, mask: int) -> float:
        """``r`` of a row that bailed at bail site ``site`` under ``mask``,
        re-run on the specialized variant set to that mask."""
        self._count_bail(site)
        return self.program.specialize(mask).run(args)[1]

    def __call__(self, X, n_threads: int = 1):
        """Evaluate a batch, returning the raw ``(N,)`` penalty vector."""
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        n = X.shape[0]
        if X.shape[1] != self.arity:
            raise ValueError(f"expected {self.arity} columns, got {X.shape[1]}")
        r = np.empty(n, dtype=np.float64)
        bail = np.empty(n, dtype=np.int32)
        # sp_batch_mt ORs the rows' covered bits into its cov argument,
        # which nothing reads here: the scalar covered buffer serves as
        # scratch, since sp_entry overwrites it whole before it is read.
        self.loaded.sp_batch_mt(
            X.ctypes.data_as(_C_DOUBLE_P),
            ctypes.c_longlong(n),
            ctypes.c_longlong(max(1, int(n_threads))),
            self._sat,
            r.ctypes.data_as(_C_DOUBLE_P),
            self._cov,
            bail.ctypes.data_as(_C_I32_P),
            None,
        )
        if bail.any():
            for row_index in np.nonzero(bail)[0]:
                r[row_index] = self._scalar_fallback(
                    X[row_index].tolist(), int(bail[row_index]) - 1,
                    self.saturated_mask)
        return r


def build_native_kernel(program) -> NativeKernel:
    """Build (or fetch from cache) the native kernel of one program.

    The kernel serves every saturation mask (set per call sequence with
    :meth:`NativeKernel.use_mask`; it starts at mask 0).  A kernel already
    on disk is loaded by digest without emitting C; the specialized bail
    target is built only at the kernel's first bail.  A kernel not on disk
    is emitted and compiled before this returns.  Raises
    :class:`NativeUnavailable` when no C compiler is present, the program
    has no source units, the emitter cannot produce a useful kernel (the
    entry would bail unconditionally) or the build fails; callers degrade to
    the scalar specialized tier.
    """
    if not program.units:
        raise NativeUnavailable(
            f"program {program.name!r} carries no source units"
        )
    loaded = _load(program)
    return NativeKernel(program, loaded)


__all__ = [
    "NativeKernel",
    "build_native_kernel",
    "clear_native_cache",
    "helper_digest",
    "kernel_digest",
    "native_cache_dir",
    "native_cache_info",
    "store_mask",
]
