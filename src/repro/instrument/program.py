"""Compilation of an instrumented program (``FOO_I`` of the paper).

:func:`instrument` takes a Python function (and optionally helper functions it
calls, per the "Handling Function Calls" paragraph of Sect. 5.3), applies the
AST pass, compiles the result into a fresh namespace sharing the original
globals, and returns an :class:`InstrumentedProgram` handle.  Executing the
program through :meth:`InstrumentedProgram.run` with a
:class:`~repro.instrument.runtime.Runtime` yields the return value, the final
value of the injected register ``r`` and the coverage record -- everything the
representing function and the coverage substrate need.

Instrumentation and ``compile()`` are paid once per machine, not once per
process: the immutable compiled artifacts of each target function (code
object, conditional metadata, descendant analysis, unparsed source) are kept
in a module-level cache in front of the content-keyed disk cache of
:mod:`repro.instrument.unit_cache`.  A repeated :func:`instrument` call
executes the cached code object in a fresh namespace, and a fresh
process (a process worker, a daemon, the next run) loads it from disk
without calling ``inspect.getsource`` or running the pass.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import inspect
import textwrap
import threading
from dataclasses import dataclass, field
from types import CodeType
from typing import Callable, Iterable, Optional, Sequence

from repro.instrument import ast_pass
from repro.instrument.ast_pass import (
    HANDLE_NAME,
    ConditionalInfo,
    compile_tree,
    instrument_source,
)
from repro.instrument.cfg import DescendantAnalysis
from repro.instrument.runtime import (
    BranchId,
    ExecutionRecord,
    Runtime,
    RuntimeHandle,
)
from repro.instrument.batch import BatchKernel, build_batch_kernel
from repro.instrument.native.cache import NativeUnavailable
from repro.instrument.native.kernel import (
    NativeKernel,
    build_native_kernel,
    clear_native_cache,
    native_cache_info,
)
from repro.instrument.signature import ProgramSignature
from repro.instrument.specialize import (
    COV_NAME,
    R_NAME,
    SAT_NAME,
    clear_specialized_cache,
    specialized_cache_info,
    specialized_unit,
)
from repro.instrument.unit_cache import (
    entry_key,
    instrumented_cache_info,
    load_entry,
    reset_instrumented_stats,
    store_entry,
)


class InstrumentationError(RuntimeError):
    """Raised when a function cannot be instrumented (e.g. no source)."""


@dataclass(frozen=True)
class CompiledUnit:
    """Immutable compiled artifacts of one instrumented source (cacheable)."""

    code: CodeType = field(repr=False)
    conditionals: tuple[ConditionalInfo, ...]
    analysis: DescendantAnalysis = field(repr=False)
    unparsed: str = field(repr=False)


#: Module-level compiled-code cache: unit key -> (dedented source,
#: CompiledUnit).  The key is the disk cache's content key
#: (:func:`repro.instrument.unit_cache.entry_key`), or for a function
#: without a source file a digest of its source.  Code objects are immutable,
#: so one cached unit can back any number of program namespaces (repeated
#: instrument() calls, one per service thread worker).
_CODE_CACHE: dict[str, tuple[str, CompiledUnit]] = {}
_CODE_CACHE_LOCK = threading.Lock()
_CODE_CACHE_MAX = 512


def compiled_cache_info() -> dict:
    """Statistics of both compile-tier caches (for tests/diagnostics).

    The top-level ``entries``/``max_entries`` keys describe the generic
    compiled-unit cache (backwards compatible); ``instrumented`` nests its
    disk layer's entry count, bytes and bound and this process's disk
    hits/misses/writes (unit, source and variant entries alike),
    ``specialized`` nests the specialization cache's size and
    hit/miss/evict counters, and ``native`` the loaded
    native-kernel cache's (plus its disk-cache entry count and the detected
    compiler version).
    """
    return {
        "entries": len(_CODE_CACHE),
        "max_entries": _CODE_CACHE_MAX,
        "instrumented": instrumented_cache_info(),
        "specialized": specialized_cache_info(),
        "native": native_cache_info(),
    }


def clear_compiled_cache() -> None:
    """Drop every cached compiled unit, specialization and loaded native
    kernel, and zero the disk layer's counters (primarily for tests; the
    disk entries stay)."""
    with _CODE_CACHE_LOCK:
        _CODE_CACHE.clear()
    reset_instrumented_stats()
    clear_specialized_cache()
    clear_native_cache()


def _compile_unit(source: str, function_name: str, start_label: int) -> CompiledUnit:
    """Run the AST pass on ``source`` and compile the result."""
    tree, conds, labels, func_node = instrument_source(
        source, function_name=function_name, start_label=start_label
    )
    code = compile_tree(tree, f"<instrumented:{function_name}>")
    return CompiledUnit(
        code=code,
        conditionals=tuple(conds),
        analysis=DescendantAnalysis.from_function(func_node, labels),
        unparsed=ast.unparse(tree),
    )


def _encode_unit(source: str, unit: CompiledUnit) -> tuple:
    """A unit as marshallable plain data (see :func:`_decode_unit`)."""
    return (
        source,
        unit.code,
        tuple(dataclasses.astuple(cond) for cond in unit.conditionals),
        tuple((b.conditional, b.outcome, labels) for b, labels in unit.analysis.reachable.items()),
        unit.unparsed,
    )


def _decode_unit(value) -> tuple[str, CompiledUnit]:
    source, code, conditionals, reachable, unparsed = value
    if not isinstance(code, CodeType):
        raise TypeError(f"unit entry holds {type(code).__name__}, not code")
    return source, CompiledUnit(
        code=code,
        conditionals=tuple(ConditionalInfo(*fields) for fields in conditionals),
        analysis=DescendantAnalysis(
            reachable={BranchId(label, outcome): labels for label, outcome, labels in reachable}
        ),
        unparsed=unparsed,
    )


def _target_unit(target: Callable, start_label: int) -> tuple[str, CompiledUnit]:
    """``(dedented source, compiled unit)`` of one target at ``start_label``.

    Served from memory, else from the disk cache (no ``inspect.getsource``),
    else by running the pass, whose result is then written to disk.  The
    key covers the pass parameters as they are at call time."""
    name = getattr(target, "__name__", "")
    params = ("unit", name, start_label, ast_pass.MAX_TREE_LEAVES, ast_pass.MAX_TREE_TOKENS)
    key = disk_key = entry_key(target, *params)
    cached = None
    if disk_key is not None:
        cached = _CODE_CACHE.get(disk_key) or load_entry(disk_key, _decode_unit)
    if cached is None:
        try:
            source = textwrap.dedent(inspect.getsource(target))
        except (OSError, TypeError) as exc:
            raise InstrumentationError(
                f"cannot obtain source for {getattr(target, '__name__', target)!r}: {exc}"
            ) from exc
        if disk_key is None:  # no source file: memory only, keyed on the source
            key = hashlib.sha256(repr((source, *params)).encode("utf-8")).hexdigest()
            cached = _CODE_CACHE.get(key)
        if cached is None:
            cached = (source, _compile_unit(source, name, start_label))
            if disk_key is not None:
                store_entry(disk_key, _encode_unit(*cached), target, *params)
    with _CODE_CACHE_LOCK:
        if key not in _CODE_CACHE and len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            # Simple bound: the cache is tiny in practice (one entry per
            # distinct target function); dropping everything on overflow
            # costs one recompile burst and keeps the logic race-free.
            _CODE_CACHE.clear()
        _CODE_CACHE[key] = cached
    return cached


class SpecializedVariant:
    """The compiled mask-generic specialization of a program.

    The variant owns a fresh namespace whose function definitions carry the
    Def. 4.2 dispatch inlined per probe site (see
    :mod:`repro.instrument.specialize`); executing it costs no runtime
    handle and no probe method calls.  Each site reads its two saturation
    bits from the namespace's ``__sp_sat__`` list (one int per
    conditional), which :meth:`use_mask` rewrites, and writes its covered
    bit into ``__sp_cov__`` (index ``2 * c + outcome``), which no run
    clears.  Both are lists, not bytearrays, because CPython specializes
    the subscripts of a list.  A program has one variant, shared by every
    caller: a caller sets the mask it needs before it runs.
    """

    __slots__ = ("saturated_mask", "entry", "namespace", "_sat")

    def __init__(self, entry: Callable, namespace: dict):
        self.entry = entry
        self.namespace = namespace
        self._sat = namespace[SAT_NAME]
        self.saturated_mask = 0

    def use_mask(self, saturated_mask: int) -> None:
        """Evaluate later runs under ``saturated_mask``."""
        if saturated_mask != self.saturated_mask:
            self._sat[:] = [
                (saturated_mask >> (label << 1)) & 3 for label in range(len(self._sat))
            ]
            self.saturated_mask = saturated_mask

    def run(self, args: Sequence[float]) -> tuple[object, float]:
        """Execute once, returning ``(return_value, r)``.

        Exceptions the generic runtimes swallow are swallowed here too, so the
        representing function stays total under this tier as well.
        """
        namespace = self.namespace
        namespace[R_NAME] = 1.0
        value: object = None
        try:
            value = self.entry(*args)
        except (ArithmeticError, ValueError, OverflowError):
            value = None
        return value, namespace[R_NAME]


@dataclass
class InstrumentedProgram:
    """A compiled, instrumented program under test.

    A program holds the state of the run on it: its one ``RuntimeHandle``,
    its native kernel's mask words and its specialized variant.  Runs on
    one program must therefore not overlap; a thread that runs concurrently
    with another instruments its own copy (a repeated :func:`instrument`
    call shares the compiled code and pays only a namespace ``exec``).

    Attributes:
        name: Name of the entry function.
        signature: Input-domain description of the entry function.
        conditionals: Static metadata for every instrumented conditional.
        descendants: Descendant-branch analysis used by saturation tracking.
        units: Per-target ``(original source, function name, start label)``
            triples recorded by :func:`instrument`; the splice points the
            saturation specializer rebuilds from.  Empty for hand-assembled
            programs, which therefore cannot be specialized.
    """

    name: str
    signature: ProgramSignature
    conditionals: list[ConditionalInfo]
    descendants: DescendantAnalysis
    entry: Callable = field(repr=False)
    handle: RuntimeHandle = field(repr=False)
    source: str = field(repr=False, default="")
    units: tuple[tuple[str, str, int], ...] = field(repr=False, default=())
    specialization_builds: int = field(default=0, repr=False)
    native_kernel_builds: int = field(default=0, repr=False)
    #: Set once a representing function warned that this program's native
    #: kernel is unavailable (one warning per program).
    native_degradation_warned: bool = field(default=False, repr=False)
    #: Cached :func:`repro.instrument.native.kernel.helper_digest`.
    native_helper_digest: Optional[str] = field(default=None, repr=False)
    _variant: Optional[SpecializedVariant] = field(default=None, repr=False)
    _native_kernel: Optional[NativeKernel] = field(default=None, repr=False)
    _branch_ids: tuple = field(default=(), repr=False)
    _all_branches: tuple = field(default=(-1, frozenset()), repr=False)

    @property
    def arity(self) -> int:
        """Number of double inputs of the entry function."""
        return self.signature.arity

    @property
    def n_conditionals(self) -> int:
        return len(self.conditionals)

    @property
    def n_branches(self) -> int:
        """Gcov-style branch count: two branches per conditional."""
        return 2 * len(self.conditionals)

    @property
    def fallback_conditionals(self) -> tuple[ConditionalInfo, ...]:
        """Conditionals whose test compiled to the distance-blind ``truth`` fallback.

        These labels receive coverage recording but no statically-guaranteed
        branch-distance guidance (the runtime still promotes numeric values
        at execution time).  A complete lowering keeps this empty; anything
        listed here is invisible to the representing function's gradient.
        """
        return tuple(cond for cond in self.conditionals if cond.form == "truth")

    def conditional_forms(self) -> dict[str, int]:
        """Histogram of the lowered conditional forms (see ``CONDITIONAL_FORMS``)."""
        counts: dict[str, int] = {}
        for cond in self.conditionals:
            counts[cond.form] = counts.get(cond.form, 0) + 1
        return counts

    @property
    def all_branches(self) -> frozenset[BranchId]:
        """Both branches of every conditional, built once per conditional
        count (like :meth:`branches_of`'s tuple)."""
        count, branches = self._all_branches
        if count != len(self.conditionals):
            branches = frozenset(
                BranchId(cond.label, outcome)
                for cond in self.conditionals
                for outcome in (True, False)
            )
            self._all_branches = (len(self.conditionals), branches)
        return branches

    def branches_of(self, covered: int) -> frozenset[BranchId]:
        """The branches of a covered-bit mask (bit ``2 * c + outcome``),
        decoded through a per-program tuple of ``BranchId``s."""
        ids = self._branch_ids
        if len(ids) != 2 * self.n_conditionals:
            ids = tuple(BranchId(bit >> 1, bool(bit & 1))
                        for bit in range(2 * self.n_conditionals))
            self._branch_ids = ids
        found = []
        while covered:
            low = covered & -covered
            found.append(ids[low.bit_length() - 1])
            covered ^= low
        return frozenset(found)

    def descendant_branches(self, branch: BranchId) -> frozenset[BranchId]:
        return self.descendants.descendant_branches(branch)

    def run(
        self, args: Sequence[float], runtime: Optional[Runtime] = None
    ) -> tuple[object, float, ExecutionRecord]:
        """Execute the instrumented program on ``args`` under ``FULL_TRACE``.

        Returns ``(return_value, r, record)``.  Exceptions escaping the
        program under test (domain errors, overflow raised as Python
        exceptions) are swallowed: the execution record up to the fault is
        still meaningful and the representing function must stay total.

        This is the recording entry point; the penalty tiers run through
        :meth:`run_specialized` and :meth:`run_native`, which return ``r``
        only.
        """
        runtime = runtime if runtime is not None else Runtime()
        self.handle.install(runtime)
        runtime.begin()
        value: object = None
        try:
            value = self.entry(*args)
        except (ArithmeticError, ValueError, OverflowError):
            value = None
        r, record = runtime.end()
        return value, r, record

    def specialize(self, saturated_mask: int) -> SpecializedVariant:
        """The program's specialized variant, set to ``saturated_mask``.

        One mask-generic variant serves every mask, as the native kernel
        does: it is built once per program instance (namespaces are
        per-program state) on top of the module-level compiled-code cache,
        and a new mask costs a rewrite of its ``__sp_sat__`` entries.
        ``specialization_builds`` counts true variant constructions.
        """
        if not self.units:
            raise InstrumentationError(
                f"program {self.name!r} carries no source units and cannot be specialized"
            )
        variant = self._variant
        if variant is None:
            namespace = dict(self.entry.__globals__)
            namespace[R_NAME] = 1.0
            namespace[SAT_NAME] = [0] * self.n_conditionals
            namespace[COV_NAME] = [0] * (2 * self.n_conditionals)
            for source, function_name, start_label in self.units:
                unit = specialized_unit(source, function_name, start_label)
                exec(unit.code, namespace)  # noqa: S102 - recompiling the user's own function
            variant = SpecializedVariant(namespace[self.name], namespace)
            self._variant = variant
            self.specialization_builds += 1
        variant.use_mask(saturated_mask & ((1 << (2 * self.n_conditionals)) - 1))
        return variant

    def batch_kernel(self, saturated_mask: int) -> BatchKernel:
        """The batched kernel of this program for ``saturated_mask``: the
        program's :meth:`specialize` variant, set to the mask, behind a
        per-row loop."""
        return build_batch_kernel(self, saturated_mask)

    def native_kernel(self, saturated_mask: int, wait: bool = True) -> NativeKernel:
        """The compiled-to-machine-code kernel of this program, set to
        evaluate under ``saturated_mask``.

        One kernel serves every mask (the mask is a runtime argument of the
        machine code), so it is cached on the program and a new mask costs a
        word-buffer write; the out-of-process ``cc`` compile
        behind it is content-addressed on disk and memoized module-wide.
        ``native_kernel_builds`` counts true kernel constructions.  Raises
        :class:`~repro.instrument.native.cache.NativeUnavailable` when no C
        compiler is present or the program cannot be emitted; callers
        degrade to the scalar specialized tier.  With ``wait=False`` a cold
        compile runs in the background and
        :class:`~repro.instrument.native.cache.NativeCompiling` is raised
        until it lands (callers serve the specialized tier meanwhile).
        """
        if not self.units:
            raise NativeUnavailable(
                f"program {self.name!r} carries no source units and cannot "
                "be compiled natively"
            )
        kernel = self._native_kernel
        if kernel is None:
            kernel = build_native_kernel(self, wait=wait)
            self.native_kernel_builds += 1
            self._native_kernel = kernel
        kernel.use_mask(saturated_mask)
        return kernel

    def run_specialized(self, args: Sequence[float], saturated_mask: int) -> float:
        """``r`` at ``args`` under the ``PENALTY_SPECIALIZED`` tier, bit-identical
        to what :class:`~repro.instrument.runtime.FastRuntime` computes for
        the same mask."""
        return self.specialize(saturated_mask).run(args)[1]

    def run_native(self, args: Sequence[float], saturated_mask: int) -> float:
        """``r`` at ``args`` under the ``PENALTY_NATIVE`` tier (bit-identical
        to :meth:`run_specialized`, to which it degrades when the native tier
        is unavailable)."""
        try:
            kernel = self.native_kernel(saturated_mask)
        except NativeUnavailable:
            return self.run_specialized(args, saturated_mask)
        return kernel.scalar(args)


def instrument(
    func: Callable,
    extra_functions: Iterable[Callable] = (),
    signature: Optional[ProgramSignature] = None,
) -> InstrumentedProgram:
    """Instrument ``func`` (and optionally helpers it calls) for CoverMe.

    Args:
        func: The entry function under test.  Its source must be available
            through :func:`inspect.getsource` (which a warm disk cache
            entry spares).
        extra_functions: Helper functions called by ``func`` whose branches
            should also be instrumented and counted (Sect. 5.3, "Handling
            Function Calls").  They are compiled into the same namespace so
            calls from the entry function reach the instrumented versions.
        signature: Optional explicit input-domain description; derived from
            ``func``'s parameters when omitted.

    Returns:
        An :class:`InstrumentedProgram`.
    """
    handle = RuntimeHandle()
    extra_functions = tuple(extra_functions)
    targets = [func, *extra_functions]

    # Build the shared namespace first so instrumented definitions (added in
    # the second pass) are never shadowed by the originals from a later
    # target's module globals.
    namespace: dict = {}
    for target in targets:
        namespace.update(getattr(target, "__globals__", {}))
    namespace[HANDLE_NAME] = handle

    conditionals: list[ConditionalInfo] = []
    analysis = DescendantAnalysis()
    next_label = 0
    sources: list[str] = []
    units: list[tuple[str, str, int]] = []

    for target in targets:
        source, unit = _target_unit(target, next_label)
        units.append((source, target.__name__, next_label))
        next_label += len(unit.conditionals)
        conditionals.extend(unit.conditionals)
        analysis.merge(unit.analysis)
        exec(unit.code, namespace)  # noqa: S102 - compiling the user's own function
        sources.append(unit.unparsed)

    entry = namespace[func.__name__]
    sig = signature or ProgramSignature.from_callable(func)
    return InstrumentedProgram(
        name=func.__name__,
        signature=sig,
        conditionals=conditionals,
        descendants=analysis,
        entry=entry,
        handle=handle,
        source="\n\n".join(sources),
        units=tuple(units),
    )
