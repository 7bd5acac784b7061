"""The representing function ``FOO_R`` (Sect. 3.2, Step 2; Thm. 4.3).

``FOO_R(x)`` initializes the injected register ``r`` to 1, executes the
instrumented program on ``x`` and returns the final value of ``r``.  With the
``pen`` policy of Def. 4.2 installed, the two key conditions hold:

* **C1**: ``FOO_R(x) >= 0`` for all ``x`` -- ``r`` is only ever assigned
  branch distances (non-negative), zero, or its previous value starting at 1.
* **C2**: ``FOO_R(x) == 0`` iff ``x`` saturates a branch not yet saturated
  (Thm. 4.3).

The object is a plain callable ``R^n -> R`` so that any unconstrained
programming backend can minimize it as a black box.

Evaluation runs under a configurable
:class:`~repro.instrument.runtime.ExecutionProfile`.  ``FULL_TRACE`` (the
default) keeps today's recording behavior: every call leaves a complete
:class:`ExecutionRecord` in :attr:`RepresentingFunction.last_record`.  The
``PENALTY_ONLY`` and ``COVERAGE`` profiles run on the allocation-free
:class:`~repro.instrument.runtime.FastRuntime` -- the optimizer inner loop
only consumes the scalar ``r``, so per-conditional trace objects are pure
overhead there.  ``PENALTY_SPECIALIZED`` goes one tier further: the program
is re-compiled with the saturation mask resolved per probe site
(:mod:`repro.instrument.specialize`), and this wrapper implements the *epoch
protocol* -- the compiled variant is reused verbatim while the tracker's
``saturated_mask`` is unchanged and transparently re-specialized (a cached
lookup when the mask was seen before) only when saturation actually flips a
bit.  ``PENALTY_NATIVE`` applies the same protocol to machine code: the
specialized lowering is compiled to a shared object
(:mod:`repro.instrument.native`) and both ``__call__`` and
``evaluate_batch`` dispatch to it, degrading to ``PENALTY_SPECIALIZED``
with a one-time per-instance warning when no C compiler is present or the
program cannot be emitted.  Cold compiles do not block: the build runs on
the background worker while calls are served by the specialized tier (no
warning — that state is transient, counted in ``native_pending_calls``)
and the kernel swaps in at the next call/batch boundary once the build
lands.  All profiles compute bit-identical values;
callers that need coverage
from a specific point (e.g. an accepted minimum) re-execute it via
:meth:`RepresentingFunction.evaluate_with_coverage`, which under the
specialized tier runs the generic fast runtime so the coverage outcome stays
complete and identical across profiles.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence

import numpy as np

from repro.core.branch_distance import DEFAULT_EPSILON
from repro.core.pen import CoverMePenalty
from repro.core.saturation import SaturationTracker
from repro.instrument.native.cache import (
    NativeCompiling,
    NativeUnavailable,
    background_ready,
)
from repro.instrument.program import InstrumentedProgram
from repro.instrument.runtime import (
    CoverageOutcome,
    ExecutionProfile,
    ExecutionRecord,
    FastRuntime,
    Runtime,
)

#: Large finite stand-in for non-finite register values; see __call__.
_CLAMP = 1.0e300

#: Exceptions the program under test may raise that must not escape FOO_R.
_SWALLOWED = (ArithmeticError, ValueError, OverflowError)

_INF = math.inf
_F64 = np.dtype(np.float64)


class RepresentingFunction:
    """Callable wrapper computing ``FOO_R`` for an instrumented program."""

    def __init__(
        self,
        program: InstrumentedProgram,
        tracker: Optional[SaturationTracker] = None,
        epsilon: float = DEFAULT_EPSILON,
        profile: ExecutionProfile | str = ExecutionProfile.FULL_TRACE,
        native_threads: int = 1,
    ):
        self.program = program
        self.tracker = tracker if tracker is not None else SaturationTracker(program)
        self.epsilon = epsilon
        self.profile = ExecutionProfile(profile)
        self.native_threads = max(1, int(native_threads))
        self.evaluations = 0
        self.last_record: Optional[ExecutionRecord] = None
        self.last_value: Optional[float] = None
        # Epoch protocol state for the specialized tier: the active compiled
        # variant plus a counter of variant switches (a switch is a cached
        # lookup unless the mask is new to the program -- see
        # ``InstrumentedProgram.specialization_builds`` for true compiles).
        self._variant = None
        self.respecializations = 0
        # Batched-kernel epoch state: mirrors the scalar variant protocol but
        # with its own counters so the two tiers stay independently auditable.
        self._batch_kernel = None
        self.batch_respecializations = 0
        self.batched_calls = 0
        # Native-kernel epoch state.  ``_native_ok`` latches False on the
        # first NativeUnavailable (no compiler, non-emittable program): the
        # instance degrades to the scalar specialized tier permanently, with
        # one warning.  A cold compile is *transient* instead: it runs on
        # the background worker (NativeCompiling), ``_native_pending`` holds
        # its digest, and calls are served by the specialized tier — no
        # warning — until the poll sees the build land and the kernel swaps
        # in at the next call/batch boundary.  Warn-once bookkeeping is
        # per-instance so a fresh RepresentingFunction (or a cleared cache)
        # warns again.
        self._native_kernel = None
        self.native_respecializations = 0
        self._native_ok = True
        self._native_pending: Optional[str] = None
        self.native_pending_calls = 0
        self._warned: set[str] = set()
        self._arity = program.arity
        self._native = self.profile is ExecutionProfile.PENALTY_NATIVE
        self._specialized = self.profile in (
            ExecutionProfile.PENALTY_SPECIALIZED,
            ExecutionProfile.PENALTY_NATIVE,
        )
        if self.profile is ExecutionProfile.FULL_TRACE:
            self._fast: Optional[FastRuntime] = None
            self._runtime = Runtime(policy=CoverMePenalty(self.tracker, epsilon), epsilon=epsilon)
        else:
            # The specialized tier keeps a fast runtime too: it backs
            # evaluate_with_coverage(), whose outcome must stay complete.
            self._fast = FastRuntime(program.n_conditionals, epsilon=epsilon)
            self._runtime = None

    @property
    def arity(self) -> int:
        return self.program.arity

    def __call__(self, x) -> float:
        """Evaluate ``FOO_R`` at ``x`` (a scalar or a length-``arity`` vector)."""
        args = self._coerce(x)
        self.evaluations += 1
        if self._specialized:
            # Specialized tier: re-read the mask every call (like the fast
            # profiles resynchronize at begin()), but only touch the compiler
            # when saturation actually flipped a bit.  Mid-epoch calls are a
            # single int comparison away from the compiled variant (or the
            # loaded machine-code kernel under the native tier).
            kernel = self.native_kernel() if self._native else None
            if kernel is not None:
                r, _cov = kernel.scalar(args)
            else:
                mask = self.tracker.saturated_mask
                variant = self._variant
                if variant is None or variant.saturated_mask != mask:
                    variant = self.program.specialize(mask, self.epsilon)
                    self._variant = variant
                    self.respecializations += 1
                _, r = variant.run(args)
            self.last_record = None
        elif self._fast is not None:
            r = self._run_fast(args)
            self.last_record = None
        else:
            _, r, record = self.program.run(args, runtime=self._runtime)
            self.last_record = record
        if r != r or r == _INF or r == -_INF:
            # NaN carries no gradient, and +/-inf (e.g. summed overflow-guard
            # distances of an ``and`` test) would poison any optimizer that
            # compares or subtracts objective values; clamp all three to the
            # same large finite penalty so C1 (FOO_R >= 0) holds numerically.
            # (Spelled as three comparisons rather than math.isfinite so the
            # overwhelmingly common finite case pays no call.)
            r = _CLAMP
        self.last_value = r
        return r

    def evaluate_batch(self, X) -> np.ndarray:
        """Evaluate ``FOO_R`` at every row of an ``(N, arity)`` array at once.

        Under the ``PENALTY_SPECIALIZED`` profile the whole batch goes
        through one :class:`~repro.instrument.batch.BatchKernel` call (under
        ``PENALTY_NATIVE``, one native kernel call on ``native_threads``
        threads), following the same epoch protocol as ``__call__``: the
        kernel is reused verbatim while the tracker's ``saturated_mask`` is
        unchanged and rebuilt (a cached per-program lookup when the mask was
        seen before) only when a bit flips.  Every other profile degrades to
        a per-row loop over ``__call__``, so the returned vector is
        bit-identical to N sequential scalar calls in all configurations.
        Non-finite register values clamp to the same large finite penalty as
        the scalar path.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(-1, 1) if self._arity == 1 else X.reshape(1, -1)
        if X.ndim != 2 or X.shape[1] != self._arity:
            raise ValueError(
                f"{self.program.name} expects (N, {self._arity}) batches, got shape {X.shape}"
            )
        n = X.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.float64)
        if self._specialized:
            native = self.native_kernel() if self._native else None
            if native is not None:
                raw, _cov = native(X, n_threads=self.native_threads)
            else:
                mask = self.tracker.saturated_mask
                kernel = self._batch_kernel
                if kernel is None or kernel.saturated_mask != mask:
                    kernel = self.program.batch_kernel(mask, self.epsilon)
                    self._batch_kernel = kernel
                    self.batch_respecializations += 1
                raw, _cov = kernel(X)
            out = np.where(np.isfinite(raw), raw, _CLAMP)
            self.evaluations += n
            self.batched_calls += 1
            self.last_record = None
            self.last_value = float(out[-1])
            return out
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            out[i] = self(X[i])
        return out

    def evaluate_with_record(self, x) -> tuple[float, ExecutionRecord]:
        """Evaluate and also return the full execution record.

        Always runs under ``FULL_TRACE`` semantics regardless of the
        configured profile, so trace consumers keep working; prefer
        :meth:`evaluate_with_coverage` when the path is not needed.
        """
        if self._fast is None:
            value = self(x)
            assert self.last_record is not None
            return value, self.last_record
        args = self._coerce(x)
        self.evaluations += 1
        runtime = Runtime(policy=CoverMePenalty(self.tracker, self.epsilon), epsilon=self.epsilon)
        _, r, record = self.program.run(args, runtime=runtime)
        if not math.isfinite(r):
            r = _CLAMP
        self.last_record = record
        self.last_value = r
        return r, record

    def evaluate_with_coverage(self, x) -> tuple[float, CoverageOutcome]:
        """Evaluate and return the coverage-profile outcome.

        This is what the engine calls on an accepted minimum: the covered
        branches plus the last executed conditional (for the
        infeasible-branch heuristic), without materializing the path.  Under
        ``FULL_TRACE`` the same data is distilled from the record so every
        profile returns identical outcomes.
        """
        if self._fast is None:
            value, record = self.evaluate_with_record(x)
            last = record.last
            return value, CoverageOutcome(
                covered=frozenset(record.covered),
                last_conditional=None if last is None else last.conditional,
                last_outcome=None if last is None else last.outcome,
            )
        if self._specialized:
            # The specialized variant's covered bitset is partial (stripped
            # probes record nothing) and it tracks no last conditional, so
            # coverage harvesting runs the generic fast runtime against the
            # same mask -- values stay bit-identical, outcomes complete.
            args = self._coerce(x)
            self.evaluations += 1
            r = self._run_fast(args)
            if r != r or r == _INF or r == -_INF:
                r = _CLAMP
            self.last_record = None
            self.last_value = r
            return r, self._fast.snapshot()
        value = self(x)
        return value, self._fast.snapshot()

    def native_kernel(self):
        """The native kernel for the tracker's current mask, or ``None``.

        ``None`` when the profile is not ``penalty-native`` or the tier
        cannot serve: the kernel is still compiling (this call is counted
        in ``native_pending_calls``) or is permanently unavailable.  A
        kernel is reused while the mask is unchanged (the epoch protocol).
        """
        if not (self._native and self._native_ok):
            return None
        mask = self.tracker.saturated_mask
        kernel = self._native_kernel
        if kernel is None or kernel.saturated_mask != mask:
            kernel = self._native_kernel_for(mask)
        return kernel

    # -- helpers -------------------------------------------------------------------

    def _native_kernel_for(self, mask):
        """Fetch/build the native kernel for ``mask``, degrading on failure.

        Returns ``None`` when the native tier cannot serve this call; the
        caller falls through to the scalar specialized tier.  The two
        failure states are reported distinctly: a *permanent*
        ``NativeUnavailable`` (no compiler, non-emittable program, failed
        build) latches ``_native_ok`` False and warns once, while a
        *transient* ``NativeCompiling`` (the background ``cc`` is still
        running) never warns — ``native_pending_calls`` counts the calls
        the specialized tier absorbed, and the kernel swaps in at the next
        boundary once :func:`background_ready` sees the build land.
        """
        pending = self._native_pending
        if pending is not None and not background_ready(pending):
            # Cheap poll: the background build is still running; don't
            # re-enter the emitter on every evaluation.
            self.native_pending_calls += 1
            return None
        try:
            kernel = self.program.native_kernel(mask, self.epsilon, wait=False)
        except NativeCompiling as exc:
            self._native_pending = exc.digest
            self.native_pending_calls += 1
            return None
        except NativeUnavailable as exc:
            self._native_ok = False
            self._native_pending = None
            self._warn_instance(
                "native-degraded",
                f"native tier permanently unavailable ({exc}); degrading to "
                "the scalar specialized tier",
            )
            return None
        self._native_pending = None
        self._native_kernel = kernel
        self.native_respecializations += 1
        return kernel

    def _warn_instance(self, key: str, message: str) -> None:
        """Emit ``message`` at most once per RepresentingFunction instance."""
        if key in self._warned:
            return
        self._warned.add(key)
        warnings.warn(message, RuntimeWarning, stacklevel=3)

    def _run_fast(self, args) -> float:
        """One generic fast-runtime execution against the current mask.

        install + begin resynchronize the saturation snapshot from the
        (possibly updated) tracker, then the program body runs with zero
        per-conditional allocations.  Shared by the penalty/coverage call
        path and the specialized tier's coverage harvest so the bit-sensitive
        execution body exists exactly once.
        """
        fast = self._fast
        program = self.program
        program.handle.install(fast)
        fast.begin(self.tracker.saturated_mask)
        try:
            program.entry(*args)
        except _SWALLOWED:
            pass
        return fast.r

    def _coerce(self, x) -> Sequence[float]:
        if x.__class__ is np.ndarray:
            # The optimizer hot path: a 1-d float64 vector of the right
            # length.  tolist() yields Python floats in one C call; the
            # generic reshaping/conversion below is kept for exotic inputs.
            if x.dtype is _F64 and x.ndim == 1:
                values = x.tolist()
            else:
                arr = np.atleast_1d(x).ravel()
                values = arr.tolist() if arr.dtype == np.float64 else [float(v) for v in arr]
        elif isinstance(x, np.ndarray):
            arr = np.atleast_1d(x).ravel()
            values = arr.tolist() if arr.dtype == np.float64 else [float(v) for v in arr]
        elif isinstance(x, (int, float)) and not isinstance(x, bool):
            values = [float(x)]
        elif isinstance(x, Sequence):
            values = [float(v) for v in x]
        else:
            values = [float(x)]
        if len(values) != self._arity:
            raise ValueError(
                f"{self.program.name} expects {self._arity} inputs, got {len(values)}"
            )
        # Returned as the list itself: every consumer star-unpacks or
        # iterates, so the historical tuple() copy was pure allocation.
        return values
