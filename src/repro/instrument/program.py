"""Compilation of an instrumented program (``FOO_I`` of the paper).

:func:`instrument` takes a Python function (and optionally helper functions it
calls, per the "Handling Function Calls" paragraph of Sect. 5.3), applies the
AST pass, compiles the result into a fresh namespace sharing the original
globals, and returns an :class:`InstrumentedProgram` handle.  Executing the
program through :meth:`InstrumentedProgram.run` with a
:class:`~repro.instrument.runtime.Runtime` yields the return value, the final
value of the injected register ``r`` and the coverage record -- everything the
representing function and the coverage substrate need.

Instrumentation and ``compile()`` are paid once per distinct source: a
module-level cache keyed by the SHA-256 of the (dedented) source text maps to
the immutable compiled artifacts (code object, conditional metadata,
descendant analysis).  :meth:`InstrumentedProgram.clone` and per-process
engine workers therefore only re-``exec`` the cached code object into a fresh
namespace, which is orders of magnitude cheaper than re-parsing and
re-compiling.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import textwrap
import threading
from dataclasses import dataclass, field
from types import CodeType
from typing import Callable, Iterable, Optional, Sequence

from repro.core.branch_distance import DEFAULT_EPSILON
from repro.instrument.ast_pass import (
    HANDLE_NAME,
    ConditionalInfo,
    instrument_source,
)
from repro.instrument.cfg import DescendantAnalysis
from repro.instrument.runtime import (
    BranchId,
    CoverageOutcome,
    ExecutionProfile,
    ExecutionRecord,
    FastRuntime,
    Runtime,
    RuntimeHandle,
)
from repro.instrument.batch import (
    BatchKernel,
    batched_cache_info,
    build_batch_kernel,
    clear_batched_cache,
)
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
    clear_specialized_cache,
    specialized_cache_info,
    specialized_unit,
)


class InstrumentationError(RuntimeError):
    """Raised when a function cannot be instrumented (e.g. no source)."""


@dataclass(frozen=True)
class ProgramOrigin:
    """The recipe an :class:`InstrumentedProgram` was built from.

    Keeping the original (uninstrumented) callables around makes the program
    *clonable*: worker threads get independent compiled namespaces, and
    worker processes can rebuild the program from the picklable function
    references instead of shipping compiled code across the process boundary.
    """

    target: Callable
    extra_functions: tuple[Callable, ...] = ()
    signature: Optional[ProgramSignature] = None


@dataclass(frozen=True)
class CompiledUnit:
    """Immutable compiled artifacts of one instrumented source (cacheable)."""

    code: CodeType = field(repr=False)
    conditionals: tuple[ConditionalInfo, ...]
    analysis: DescendantAnalysis = field(repr=False)
    unparsed: str = field(repr=False)


#: Module-level compiled-code cache: (source sha256, function name,
#: start label) -> CompiledUnit.  Code objects are immutable, so one cached
#: unit can back any number of program namespaces (clones, worker processes
#: after fork, repeated instrument() calls).
_CODE_CACHE: dict[tuple[str, str, int], CompiledUnit] = {}
_CODE_CACHE_LOCK = threading.Lock()
_CODE_CACHE_MAX = 512


def compiled_cache_info() -> dict:
    """Statistics of both compile-tier caches (for tests/diagnostics).

    The top-level ``entries``/``max_entries`` keys describe the generic
    compiled-unit cache (backwards compatible); ``specialized`` nests the
    per-mask specialization cache's size and hit/miss/evict counters,
    ``batched`` nests the batched-kernel plan cache's, and ``native`` the
    loaded native-kernel cache's (plus its disk-cache entry count and the
    detected compiler version).
    """
    return {
        "entries": len(_CODE_CACHE),
        "max_entries": _CODE_CACHE_MAX,
        "specialized": specialized_cache_info(),
        "batched": batched_cache_info(),
        "native": native_cache_info(),
    }


def clear_compiled_cache() -> None:
    """Drop every cached compiled unit, specialization, batched kernel plan
    and loaded native kernel (primarily for tests)."""
    with _CODE_CACHE_LOCK:
        _CODE_CACHE.clear()
    clear_specialized_cache()
    clear_batched_cache()
    clear_native_cache()


def _compiled_unit(source: str, function_name: str, start_label: int) -> CompiledUnit:
    """Instrument + compile ``source``, memoized on its hash."""
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    key = (digest, function_name, start_label)
    unit = _CODE_CACHE.get(key)
    if unit is not None:
        return unit
    tree, conds, labels, func_node = instrument_source(
        source, function_name=function_name, start_label=start_label
    )
    code = compile(tree, filename=f"<instrumented:{function_name}>", mode="exec")
    unit = CompiledUnit(
        code=code,
        conditionals=tuple(conds),
        analysis=DescendantAnalysis.from_function(func_node, labels),
        unparsed=ast.unparse(tree),
    )
    with _CODE_CACHE_LOCK:
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            # Simple bound: the cache is tiny in practice (one entry per
            # distinct target function); dropping everything on overflow
            # costs one recompile burst and keeps the logic race-free.
            _CODE_CACHE.clear()
        _CODE_CACHE[key] = unit
    return unit


#: Bound on cached specialized variants per program instance.  Masks evolve
#: monotonically within one search, so live masks are few; the FIFO bound only
#: protects pathological callers cycling through many masks.
_VARIANTS_MAX = 64

#: Bound on cached batched kernels per program instance (same rationale).
_BATCH_KERNELS_MAX = 64

#: Bound on cached native kernels per program instance (same rationale).
_NATIVE_KERNELS_MAX = 64


class SpecializedVariant:
    """One compiled specialization of a program against a concrete mask.

    The variant owns a fresh namespace whose function definitions carry the
    Def. 4.2 dispatch resolved per probe site (see
    :mod:`repro.instrument.specialize`); executing it costs no runtime handle,
    no probe method calls and no mask shifts.  ``covered`` holds the partial
    covered-branch bytearray: only conditionals that were not both-saturated
    at specialization time record bits (stripped probes record nothing).
    """

    __slots__ = (
        "program_name",
        "saturated_mask",
        "epsilon",
        "entry",
        "namespace",
        "covered",
        "_zeros",
        "n_conditionals",
    )

    def __init__(
        self,
        program_name: str,
        saturated_mask: int,
        epsilon: float,
        entry: Callable,
        namespace: dict,
        n_conditionals: int,
    ):
        self.program_name = program_name
        self.saturated_mask = saturated_mask
        self.epsilon = epsilon
        self.entry = entry
        self.namespace = namespace
        self.n_conditionals = n_conditionals
        self._zeros = bytes(2 * n_conditionals)
        self.covered = namespace[COV_NAME]

    def run(self, args: Sequence[float]) -> tuple[object, float]:
        """Execute once, returning ``(return_value, r)``.

        Exceptions the generic runtimes swallow are swallowed here too, so the
        representing function stays total under this tier as well.
        """
        namespace = self.namespace
        namespace[R_NAME] = 1.0
        self.covered[:] = self._zeros
        value: object = None
        try:
            value = self.entry(*args)
        except (ArithmeticError, ValueError, OverflowError):
            value = None
        return value, namespace[R_NAME]

    @property
    def r(self) -> float:
        return self.namespace[R_NAME]

    def covered_mask(self) -> int:
        """Covered branches of the last run as a flat (partial) bitmask."""
        mask = 0
        for bit, hit in enumerate(self.covered):
            if hit:
                mask |= 1 << bit
        return mask


@dataclass
class InstrumentedProgram:
    """A compiled, instrumented program under test.

    Attributes:
        name: Name of the entry function.
        signature: Input-domain description of the entry function.
        conditionals: Static metadata for every instrumented conditional.
        descendants: Descendant-branch analysis used by saturation tracking.
        origin: Build recipe enabling :meth:`clone`; ``None`` for programs
            assembled by hand.
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
    origin: Optional[ProgramOrigin] = field(repr=False, default=None)
    units: tuple[tuple[str, str, int], ...] = field(repr=False, default=())
    specialization_builds: int = field(default=0, repr=False)
    batched_kernel_builds: int = field(default=0, repr=False)
    native_kernel_builds: int = field(default=0, repr=False)
    #: Cached :func:`repro.instrument.native.kernel.helper_digest`.
    native_helper_digest: Optional[str] = field(default=None, repr=False)
    _variants: dict = field(default_factory=dict, repr=False)
    _batch_kernels: dict = field(default_factory=dict, repr=False)
    _native_kernels: dict = field(default_factory=dict, repr=False)

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
        branches: set[BranchId] = set()
        for cond in self.conditionals:
            branches.add(BranchId(cond.label, True))
            branches.add(BranchId(cond.label, False))
        return frozenset(branches)

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

        This is the recording entry point; profile-aware callers use
        :meth:`run_profiled`.
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

    def run_profiled(
        self,
        args: Sequence[float],
        profile: ExecutionProfile = ExecutionProfile.FULL_TRACE,
        runtime: Optional["Runtime | FastRuntime"] = None,
        saturated_mask: Optional[int] = None,
    ) -> tuple[object, float, "ExecutionRecord | CoverageOutcome | int"]:
        """Execute on ``args`` under an explicit execution profile.

        Returns ``(return_value, r, outcome)`` where ``outcome`` is the full
        :class:`ExecutionRecord` under ``FULL_TRACE``, a
        :class:`CoverageOutcome` under ``COVERAGE``, and just the flat
        covered-branch bitmask (an ``int``) under ``PENALTY_ONLY`` -- that
        profile's contract is "``r`` plus a bitset", so no per-call branch
        objects are materialized.  ``saturated_mask`` feeds the fast
        runtime's inlined penalty; when omitted, a reused runtime keeps the
        mask it was configured with (ignored under ``FULL_TRACE``, where the
        caller installs a policy on the runtime).
        """
        profile = ExecutionProfile(profile)
        if profile is ExecutionProfile.FULL_TRACE:
            return self.run(args, runtime=runtime)  # type: ignore[arg-type]
        if profile is ExecutionProfile.PENALTY_NATIVE:
            if saturated_mask is None:
                saturated_mask = getattr(runtime, "saturated_mask", 0)
            return self.run_native(
                args,
                saturated_mask,
                epsilon=getattr(runtime, "epsilon", DEFAULT_EPSILON),
            )
        if profile is ExecutionProfile.PENALTY_SPECIALIZED:
            if saturated_mask is None:
                saturated_mask = getattr(runtime, "saturated_mask", 0)
            return self.run_specialized(
                args,
                saturated_mask,
                # A passed (fast) runtime configures the tier -- its epsilon
                # is baked into the specialized code, keeping r bit-identical
                # to what that runtime would compute.
                epsilon=getattr(runtime, "epsilon", DEFAULT_EPSILON),
            )
        fast = runtime if runtime is not None else FastRuntime(self.n_conditionals)
        self.handle.install(fast)
        fast.begin(saturated_mask)
        value: object = None
        try:
            value = self.entry(*args)
        except (ArithmeticError, ValueError, OverflowError):
            value = None
        if profile is ExecutionProfile.PENALTY_ONLY:
            return value, fast.r, fast.covered_mask()
        return value, fast.r, fast.snapshot()

    def specialize(
        self, saturated_mask: int, epsilon: float = DEFAULT_EPSILON
    ) -> SpecializedVariant:
        """The compiled specialization of this program for ``saturated_mask``.

        Variants are cached per ``(mask, epsilon)`` on the program instance
        (namespaces are per-program state) on top of the module-level
        compiled-code cache, so re-requesting a mask an epoch already used is
        a dictionary lookup and a repeated mask across programs/workers only
        pays a namespace ``exec``, never a re-compile.
        ``specialization_builds`` counts true variant constructions -- the
        epoch protocol's "zero recompiles while the mask is unchanged"
        guarantee is asserted against it.
        """
        if not self.units:
            raise InstrumentationError(
                f"program {self.name!r} carries no source units and cannot be specialized"
            )
        mask = saturated_mask & ((1 << (2 * self.n_conditionals)) - 1)
        key = (mask, epsilon)
        variant = self._variants.get(key)
        if variant is not None:
            return variant
        namespace = dict(self.entry.__globals__)
        namespace[COV_NAME] = bytearray(2 * self.n_conditionals)
        namespace[R_NAME] = 1.0
        for source, function_name, start_label in self.units:
            unit = specialized_unit(source, function_name, start_label, mask, epsilon)
            exec(unit.code, namespace)  # noqa: S102 - recompiling the user's own function
        variant = SpecializedVariant(
            program_name=self.name,
            saturated_mask=mask,
            epsilon=epsilon,
            entry=namespace[self.name],
            namespace=namespace,
            n_conditionals=self.n_conditionals,
        )
        self.specialization_builds += 1
        while len(self._variants) >= _VARIANTS_MAX:
            self._variants.pop(next(iter(self._variants)))
        self._variants[key] = variant
        return variant

    def batch_kernel(
        self, saturated_mask: int, epsilon: float = DEFAULT_EPSILON
    ) -> BatchKernel:
        """The batched kernel of this program for ``saturated_mask``.

        Kernels join the per-program variant cache with the same
        epoch/re-specialization protocol as :meth:`specialize`: re-requesting
        a mask an epoch already used is a dictionary lookup, and the plan
        compile behind a new mask is memoized module-wide.
        ``batched_kernel_builds`` counts true kernel constructions.
        """
        if not self.units:
            raise InstrumentationError(
                f"program {self.name!r} carries no source units and cannot be batched"
            )
        mask = saturated_mask & ((1 << (2 * self.n_conditionals)) - 1)
        key = (mask, epsilon)
        kernel = self._batch_kernels.get(key)
        if kernel is not None:
            return kernel
        kernel = build_batch_kernel(self, mask, epsilon)
        self.batched_kernel_builds += 1
        while len(self._batch_kernels) >= _BATCH_KERNELS_MAX:
            self._batch_kernels.pop(next(iter(self._batch_kernels)))
        self._batch_kernels[key] = kernel
        return kernel

    def native_kernel(
        self, saturated_mask: int, epsilon: float = DEFAULT_EPSILON,
        wait: bool = True
    ) -> NativeKernel:
        """The compiled-to-machine-code kernel of this program for
        ``saturated_mask``.

        Kernels join the per-program variant cache with the same
        epoch/re-specialization protocol as :meth:`specialize` and
        :meth:`batch_kernel`; the out-of-process ``cc`` compile behind a new
        mask is content-addressed on disk and memoized module-wide.
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
        mask = saturated_mask & ((1 << (2 * self.n_conditionals)) - 1)
        key = (mask, epsilon)
        kernel = self._native_kernels.get(key)
        if kernel is not None:
            return kernel
        kernel = build_native_kernel(self, mask, epsilon, wait=wait)
        self.native_kernel_builds += 1
        while len(self._native_kernels) >= _NATIVE_KERNELS_MAX:
            self._native_kernels.pop(next(iter(self._native_kernels)))
        self._native_kernels[key] = kernel
        return kernel

    def run_specialized(
        self,
        args: Sequence[float],
        saturated_mask: int,
        epsilon: float = DEFAULT_EPSILON,
    ) -> tuple[object, float, int]:
        """Execute under the ``PENALTY_SPECIALIZED`` tier.

        Returns ``(return_value, r, covered_mask)`` where ``covered_mask`` is
        *partial*: conditionals that were both-saturated in ``saturated_mask``
        had their probes stripped and record no bits.  ``r`` is bit-identical
        to what :class:`~repro.instrument.runtime.FastRuntime` computes for
        the same mask.
        """
        variant = self.specialize(saturated_mask, epsilon)
        value, r = variant.run(args)
        return value, r, variant.covered_mask()

    def run_native(
        self,
        args: Sequence[float],
        saturated_mask: int,
        epsilon: float = DEFAULT_EPSILON,
    ) -> tuple[object, float, int]:
        """Execute under the ``PENALTY_NATIVE`` tier.

        Same contract as :meth:`run_specialized` -- ``r`` bit-identical,
        ``covered_mask`` partial -- except the return value is ``None``
        (the machine-code kernel computes ``r`` and coverage only).  When
        the native tier is unavailable the call transparently degrades to
        :meth:`run_specialized`, which does return the value.
        """
        try:
            kernel = self.native_kernel(saturated_mask, epsilon)
        except NativeUnavailable:
            return self.run_specialized(args, saturated_mask, epsilon)
        r, covered = kernel.scalar(args)
        return None, r, covered

    def clone(self) -> "InstrumentedProgram":
        """Rebuild this program with a fresh namespace and runtime handle.

        Each clone owns its namespace and :class:`RuntimeHandle`, so clones
        can execute concurrently (one per worker thread) without racing on
        the installed runtime.  The compiled code objects are shared through
        the module-level cache, so cloning only re-``exec``s them.  Requires
        :attr:`origin`.
        """
        if self.origin is None:
            raise InstrumentationError(
                f"program {self.name!r} was not built by instrument() and cannot be cloned"
            )
        return instrument(
            self.origin.target,
            extra_functions=self.origin.extra_functions,
            signature=self.origin.signature,
        )


def instrument(
    func: Callable,
    extra_functions: Iterable[Callable] = (),
    signature: Optional[ProgramSignature] = None,
) -> InstrumentedProgram:
    """Instrument ``func`` (and optionally helpers it calls) for CoverMe.

    Args:
        func: The entry function under test.  Its source must be available
            through :func:`inspect.getsource`.
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
        try:
            source = textwrap.dedent(inspect.getsource(target))
        except (OSError, TypeError) as exc:
            raise InstrumentationError(
                f"cannot obtain source for {getattr(target, '__name__', target)!r}: {exc}"
            ) from exc
        units.append((source, target.__name__, next_label))
        unit = _compiled_unit(source, target.__name__, next_label)
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
        origin=ProgramOrigin(target=func, extra_functions=extra_functions, signature=signature),
        units=tuple(units),
    )
