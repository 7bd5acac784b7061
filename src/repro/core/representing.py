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
wrapper's default, the reference tier) records: every call leaves a complete
:class:`ExecutionRecord` in :attr:`RepresentingFunction.last_record`.  The
optimizer inner loop only consumes the scalar ``r``, so it runs a compiled
tier instead.  Both compile the program once, with Def. 4.2 inlined at
every probe site and the saturation mask read at run time, as ``pen``
reads the saturated set in Algorithm 1.  ``PENALTY_SPECIALIZED`` runs the
program's one compiled Python variant (:mod:`repro.instrument.specialize`);
``PENALTY_NATIVE`` runs the same form compiled to a shared object
(:mod:`repro.instrument.native`).  This wrapper implements the *epoch
protocol*: it rebinds the variant or kernel to the tracker's
``saturated_mask`` only when the mask differs from the one it holds (a
write of mask entries, never a compile).  ``__call__`` and
``evaluate_batch`` dispatch to the native kernel under the tracker's
current mask, degrading to ``PENALTY_SPECIALIZED`` with one warning per
program when no C compiler is present or the program cannot be emitted.
Cold compiles do not block: the build runs on the background worker while
calls are served by the specialized tier (no warning — that state is
transient, counted in ``native_pending_calls``) and the kernel swaps in at
the next call/batch boundary once the build lands.  All profiles compute
bit-identical values, and an evaluation under a compiled tier computes
``r`` only.  Callers that need coverage from a specific point (e.g. an
accepted minimum) re-execute it via
:meth:`RepresentingFunction.evaluate_with_coverage`.  Under
``PENALTY_NATIVE`` that is one kernel call, whose probe sites all record
their covered bit and the last conditional; rows the kernel bails on, and
the specialized profile (whose variant records no last conditional), run
the allocation-free :class:`~repro.instrument.runtime.FastRuntime` instead,
so the coverage outcome stays complete and identical across profiles.
Both keep the covered branches as the bit word they produced
(:class:`CoverageWord`), decoded to ``BranchId`` sets only when read.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence

import numpy as np

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


class CoverageWord(CoverageOutcome):
    """A compiled tier's coverage outcome, holding the covered word (bit
    ``2 * c + outcome``) as the native kernel or the fast runtime produced
    it.

    :meth:`covered_mask` returns the word as it is, which is all the
    engine's reduction reads; ``covered`` decodes it to ``BranchId`` objects
    at its first read.  It equals any :class:`CoverageOutcome` with the same
    branches and last conditional.
    """

    def __init__(self, program: InstrumentedProgram, covered: int,
                 last_conditional: Optional[int], last_outcome: Optional[bool]):
        set_ = object.__setattr__  # the dataclass is frozen
        set_(self, "_program", program)
        set_(self, "_covered", covered)
        set_(self, "last_conditional", last_conditional)
        set_(self, "last_outcome", last_outcome)

    def __getattr__(self, name: str):
        # Reached only while ``covered`` is not decoded yet.
        if name != "covered":
            raise AttributeError(name)
        covered = self._program.branches_of(self._covered)
        object.__setattr__(self, "covered", covered)
        return covered

    def covered_mask(self) -> int:
        return self._covered

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoverageOutcome):
            return NotImplemented
        return (self.covered_mask(), self.last_conditional, self.last_outcome) == (
            other.covered_mask(), other.last_conditional, other.last_outcome)

    __hash__ = CoverageOutcome.__hash__


class RepresentingFunction:
    """Callable wrapper computing ``FOO_R`` for an instrumented program."""

    def __init__(
        self,
        program: InstrumentedProgram,
        tracker: Optional[SaturationTracker] = None,
        profile: ExecutionProfile | str = ExecutionProfile.FULL_TRACE,
        native_threads: int = 1,
    ):
        self.program = program
        self.tracker = tracker if tracker is not None else SaturationTracker(program)
        self.profile = ExecutionProfile(profile)
        self.native_threads = max(1, int(native_threads))
        self.evaluations = 0
        self.last_record: Optional[ExecutionRecord] = None
        self.last_value: Optional[float] = None
        # Epoch protocol state for the specialized tier: the program's
        # variant plus a counter of mask rebinds (the variant is built once
        # per program -- see ``InstrumentedProgram.specialization_builds``).
        # The variant is shared with every other caller on the program, so
        # its mask is re-read on every call, never cached here.
        self._variant = None
        self.respecializations = 0
        # Batched-kernel epoch state: mirrors the scalar variant protocol but
        # with its own counters so the two paths stay independently auditable.
        self._batch_kernel = None
        self.batch_respecializations = 0
        self.batched_calls = 0
        # Native-kernel state.  The program's one kernel serves every mask;
        # ``native_respecializations`` counts the times this wrapper bound
        # it to a new mask.  ``_native_ok`` latches False on the first
        # NativeUnavailable (no compiler, non-emittable program): the
        # instance degrades to the scalar specialized tier permanently, and
        # the first instance of the program to degrade warns.  A cold
        # compile is *transient* instead: it runs on the background worker
        # (NativeCompiling), ``_native_pending`` holds its digest, and calls
        # are served by the specialized tier — no warning — until the poll
        # sees the build land and the kernel swaps in at the next call/batch
        # boundary.
        self._native_kernel = None
        self.native_respecializations = 0
        self._native_ok = True
        self._native_pending: Optional[str] = None
        self.native_pending_calls = 0
        self._arity = program.arity
        self._native = self.profile is ExecutionProfile.PENALTY_NATIVE
        self._specialized = self.profile is not ExecutionProfile.FULL_TRACE
        # The specialized variant records no last conditional, so a fast
        # runtime backs evaluate_with_coverage() whenever the native kernel
        # does not serve it (another profile, a bailed row, no kernel); it
        # is built at its first harvest.
        self._fast: Optional[FastRuntime] = None
        if self._specialized:
            self._runtime = None
        else:
            self._runtime = Runtime(policy=CoverMePenalty(self.tracker))

    @property
    def arity(self) -> int:
        return self.program.arity

    def __call__(self, x) -> float:
        """Evaluate ``FOO_R`` at ``x`` (a scalar or a length-``arity`` vector)."""
        args = self._coerce(x)
        self.evaluations += 1
        if self._specialized:
            # Compiled tiers: re-read the mask every call, and rebind the
            # variant only when its mask differs.  Mid-epoch calls are a
            # single int comparison away from the compiled variant (or the
            # loaded machine-code kernel under the native tier).
            kernel = self.native_kernel() if self._native else None
            if kernel is not None:
                r = kernel.scalar(args)
            else:
                mask = self.tracker.saturated_mask
                variant = self._variant
                if variant is None or variant.saturated_mask != mask:
                    variant = self.program.specialize(mask)
                    self._variant = variant
                    self.respecializations += 1
                _, r = variant.run(args)
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
        through one :class:`~repro.instrument.batch.BatchKernel` call, a
        per-row loop over the specialized variant (under ``PENALTY_NATIVE``,
        one native kernel call on ``native_threads`` threads), following the
        same epoch protocol as ``__call__``: the kernel is reused verbatim
        while its variant holds the tracker's ``saturated_mask`` and
        re-fetched (around the program's one variant, set to the mask)
        otherwise.  ``FULL_TRACE`` degrades to a
        per-row loop over ``__call__``, so the returned vector is
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
                raw = native(X, n_threads=self.native_threads)
            else:
                mask = self.tracker.saturated_mask
                kernel = self._batch_kernel
                if kernel is None or kernel.saturated_mask != mask:
                    kernel = self.program.batch_kernel(mask)
                    self._batch_kernel = kernel
                    self.batch_respecializations += 1
                raw = kernel(X)
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
        if not self._specialized:
            value = self(x)
            assert self.last_record is not None
            return value, self.last_record
        args = self._coerce(x)
        self.evaluations += 1
        runtime = Runtime(policy=CoverMePenalty(self.tracker))
        _, r, record = self.program.run(args, runtime=runtime)
        if not math.isfinite(r):
            r = _CLAMP
        self.last_record = record
        self.last_value = r
        return r, record

    def evaluate_with_coverage(self, x) -> tuple[float, CoverageOutcome]:
        """Evaluate and return the covered branches at ``x``.

        This is what the engine calls on an accepted minimum: the covered
        branches plus the last executed conditional (for the
        infeasible-branch heuristic), without materializing the path.  Under
        ``FULL_TRACE`` the same data is distilled from the record so every
        profile returns identical outcomes.
        """
        if not self._specialized:
            value, record = self.evaluate_with_record(x)
            last = record.last
            return value, CoverageOutcome(
                covered=frozenset(record.covered),
                last_conditional=None if last is None else last.conditional,
                last_outcome=None if last is None else last.outcome,
            )
        args = self._coerce(x)
        self.evaluations += 1
        program = self.program
        # Only a kernel this wrapper already holds serves the harvest, so a
        # pending build is not polled (nor counted) once more here.
        kernel = self.native_kernel() if self._native_kernel is not None else None
        if kernel is not None:
            # Every site of the native kernel records its covered bit and
            # the last conditional, so one call yields the whole outcome.
            row = kernel.coverage(args)
            if row is not None:
                r, covered, last = row
                if r != r or r == _INF or r == -_INF:
                    r = _CLAMP
                self.last_record = None
                self.last_value = r
                return r, CoverageWord(
                    program,
                    covered,
                    None if last < 0 else last >> 1,
                    None if last < 0 else bool(last & 1),
                )
        # The specialized variant records no last conditional, so the
        # harvest runs the generic fast runtime against the same mask --
        # values stay bit-identical, outcomes complete.  install + begin
        # resynchronize the saturation snapshot from the (possibly updated)
        # tracker.
        fast = self._fast
        if fast is None:
            fast = self._fast = FastRuntime(program.n_conditionals)
        program.handle.install(fast)
        fast.begin(self.tracker.saturated_mask)
        try:
            program.entry(*args)
        except _SWALLOWED:
            pass
        r = fast.r
        if r != r or r == _INF or r == -_INF:
            r = _CLAMP
        self.last_record = None
        self.last_value = r
        return r, CoverageWord(program, fast.covered_mask(), fast.last_conditional,
                               fast.last_outcome)

    def native_kernel(self):
        """The program's native kernel, set to the tracker's current mask,
        or ``None``.

        ``None`` when the profile is not ``penalty-native`` or the tier
        cannot serve: the kernel is still compiling (this call is counted
        in ``native_pending_calls``) or is permanently unavailable.  The
        kernel is rebound only when the mask changed (the epoch protocol).
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
        """Fetch/build the native kernel and bind it to ``mask``, degrading
        on failure.

        Returns ``None`` when the native tier cannot serve this call; the
        caller falls through to the scalar specialized tier.  The two
        failure states are reported distinctly: a *permanent*
        ``NativeUnavailable`` (no compiler, non-emittable program, failed
        build) latches ``_native_ok`` False and warns once per program,
        while a
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
            kernel = self.program.native_kernel(mask, wait=False)
        except NativeCompiling as exc:
            self._native_pending = exc.digest
            self.native_pending_calls += 1
            return None
        except NativeUnavailable as exc:
            self._native_ok = False
            self._native_pending = None
            if not self.program.native_degradation_warned:
                # The kernel is per program, so is its failure: later
                # instances (one per start) degrade silently.
                self.program.native_degradation_warned = True
                warnings.warn(
                    f"native tier permanently unavailable ({exc}); degrading "
                    "to the scalar specialized tier",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None
        self._native_pending = None
        self._native_kernel = kernel
        self.native_respecializations += 1
        return kernel

    def _coerce(self, x) -> Sequence[float]:
        if x.__class__ is list and len(x) == self._arity:
            # The optimizer hot path: Powell passes each point as a list of
            # Python floats, which every consumer takes as it is.
            return x
        if x.__class__ is np.ndarray:
            # A 1-d float64 vector: tolist() yields Python floats in one C
            # call; the generic reshaping/conversion below is kept for
            # exotic inputs.
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
