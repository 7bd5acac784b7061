"""Per-start execution units of the search engine.

A *start* is one basin-hopping launch of Algorithm 1's loop body (lines
9-13): minimize the representing function from one starting point against a
frozen snapshot of the saturation state, then evaluate the found minimum once
more to obtain its coverage outcome.  The minimization loop runs under the
configured execution profile (``PENALTY_NATIVE`` by default -- the optimizer
only reads the scalar objective) with a bit-pattern memo in front of the
objective; the final evaluation harvests the covered branches and the
infeasible heuristic's last conditional, in one call of the program's native
kernel under ``PENALTY_NATIVE`` (whose probe sites all record coverage) and
on the allocation-free fast runtime otherwise or when the kernel bails on
the minimum.  A start builds its random generator only when basin hopping
first draws from it.  Starts within a batch share the same snapshot, so
:func:`prime_chunk` can evaluate all their starting points in one call.

What does not change from start to start is built once per run, in a
:class:`RunContext`: the tracker of a batch's snapshot (starts only read
it) and, under ``PENALTY_NATIVE``, the fused search's C context, which each
start re-arms with its own mask and an empty memo.  A start still gets its
own representing function and random generator.

Under the ``PENALTY_SPECIALIZED`` profile the batch's tracker snapshot
freezes the saturation mask, and each start's representing function runs
the program's one mask-generic variant, built once per program: it
compares the variant's mask with its tracker's on every call and rewrites
the variant's ``__sp_sat__`` list only when a batch reduction flipped a
saturation bit (the native kernel's mask words follow the same rule).

Snapshots and harvests stay bit masks (bit ``2 * c + outcome``): a task
carries its snapshot's covered and infeasible masks, and a result its
covered word as the kernel or fast runtime produced it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.representing import RepresentingFunction
from repro.core.saturation import SaturationTracker
from repro.instrument.native.local_min import native_objective
from repro.instrument.program import InstrumentedProgram
from repro.instrument.runtime import ExecutionProfile
from repro.optimize.basinhopping import basinhopping
from repro.optimize.memo import BitPatternMemo

#: Sub-stream tag keeping start RNGs disjoint from the scheduler's draws.
_STREAM_WORKER = 202

#: Profiles whose chunks are primed.  Not ``penalty-native``: a native
#: start computes ``FOO_R(x0)`` in well under a microsecond itself.
_PRIMED_PROFILES = (ExecutionProfile.PENALTY_SPECIALIZED,)

#: Direction-set sweeps each local search may take.
LOCAL_MAX_ITERATIONS = 40


class _LazyGenerator:
    """A start's random generator, built at its first draw.

    Most starts stop at their first local search and never draw, so the
    ``np.random.default_rng`` construction is deferred to the first
    attribute read; every draw goes to the one generator built from
    ``seed``, so the stream is bit-identical to an eager one."""

    __slots__ = ("_seed", "_rng")

    def __init__(self, seed: list):
        self._seed = seed
        self._rng = None

    def __getattr__(self, name: str):
        rng = self._rng
        if rng is None:
            rng = self._rng = np.random.default_rng(self._seed)
        return getattr(rng, name)


@dataclass(frozen=True)
class StartParams:
    """The per-run constants every start needs (one copy per run, not per start)."""

    local_minimizer: str
    n_iter: int
    root_seed: int
    deadline: Optional[float] = None
    eval_profile: str = ExecutionProfile.PENALTY_NATIVE.value
    native_threads: int = 1


@dataclass(frozen=True)
class StartTask:
    """One scheduled start: its global index, starting point and snapshot
    (its covered and infeasible branches as bit masks)."""

    index: int
    x0: tuple[float, ...]
    covered: int
    infeasible: int


@dataclass
class StartResult:
    """What one start produced, in the shape the deterministic merge consumes."""

    index: int
    x0: tuple[float, ...]
    x_star: tuple[float, ...]
    value: float
    covered: int = 0  # the covered word of x_star (bit 2 * c + outcome)
    last_conditional: Optional[int] = None
    last_outcome: Optional[bool] = None
    evaluations: int = 0
    skipped: bool = False

    @classmethod
    def deadline_skip(cls, task: StartTask) -> "StartResult":
        return cls(index=task.index, x0=task.x0, x_star=task.x0, value=float("inf"), skipped=True)


def prime_chunk(
    program: InstrumentedProgram, params: StartParams, tasks: list[StartTask]
) -> Optional[dict[int, float]]:
    """One batched first-evaluation pass over a chunk's start vectors.

    Under the specialized profile the chunk's ``x0`` vectors go through a
    single :class:`~repro.instrument.batch.BatchKernel` call (one execution
    of the specialized variant per row); the resulting values seed each
    start's memo, so the optimizer's opening evaluation at ``x0`` is a cache
    hit instead of a second execution.  Returns ``{task.index: r}`` for the
    primed tasks, or ``None`` when priming does not apply.  Only tasks
    sharing the first task's saturation snapshot are primed (batches always
    do; a defensive guard for hand-built chunks), so the planted values are
    exactly what each start's own representing function would compute and
    seeded trajectories are unchanged.
    """
    if len(tasks) < 2:
        return None
    if ExecutionProfile(params.eval_profile) not in _PRIMED_PROFILES:
        return None
    if params.deadline is not None and time.time() >= params.deadline:
        return None
    covered, infeasible = tasks[0].covered, tasks[0].infeasible
    eligible = [t for t in tasks if t.covered == covered and t.infeasible == infeasible]
    if len(eligible) < 2:
        return None
    tracker = SaturationTracker.from_masks(program, covered, infeasible)
    representing = RepresentingFunction(
        program, tracker, profile=params.eval_profile, native_threads=params.native_threads
    )
    X = np.ascontiguousarray([t.x0 for t in eligible], dtype=np.float64)
    values = representing.evaluate_batch(X)
    return {t.index: float(v) for t, v in zip(eligible, values)}


class RunContext:
    """What the starts of one engine run on one program share.

    :meth:`tracker` computes a saturation snapshot once and hands it to
    every start of the batch it belongs to (starts only read it), and
    :meth:`objective` builds the fused search's
    :class:`~repro.instrument.native.local_min.NativeObjective` at the run's
    first start that can take the fused path and re-arms it for each later
    one, so a run holds one C context.  :meth:`close` frees it; the owner
    calls it when the run ends (``StartPool.close``), and :func:`run_start`
    called without a context builds and closes one of its own.
    """

    __slots__ = ("program", "_snapshot", "_tracker", "_fused")

    def __init__(self, program: InstrumentedProgram):
        self.program = program
        self._snapshot: Optional[tuple[int, int]] = None  # (covered, infeasible) of _tracker
        self._tracker: Optional[SaturationTracker] = None
        self._fused = None

    def tracker(self, task: StartTask) -> SaturationTracker:
        """The saturation snapshot of ``task``: the previous start's when
        it froze the same covered and infeasible masks."""
        snapshot = (task.covered, task.infeasible)
        if snapshot != self._snapshot:
            self._tracker = SaturationTracker.from_masks(self.program, *snapshot)
            self._snapshot = snapshot
        return self._tracker

    def objective(self, representing: RepresentingFunction):
        """The fused search armed for ``representing``'s start, or ``None``
        when the start runs the Python search."""
        fused = self._fused
        if fused is None:
            fused = self._fused = native_objective(representing)
        else:
            fused.rearm(representing)
        return fused

    def close(self) -> None:
        """Free the fused search's C context (idempotent)."""
        fused, self._fused = self._fused, None
        if fused is not None:
            fused.close()


def run_start(
    program: InstrumentedProgram,
    params: StartParams,
    task: StartTask,
    primed: Optional[float] = None,
    context: Optional[RunContext] = None,
) -> StartResult:
    """Execute one start against ``task``'s saturation snapshot.

    ``primed`` is the pre-computed ``FOO_R(x0)`` from :func:`prime_chunk`;
    when present it is planted in the memo and one evaluation is credited,
    so the reported evaluation count matches the unprimed run.  ``context``
    is the run's :class:`RunContext`; without one the start builds its own
    and frees it before returning.
    """
    if params.deadline is not None and time.time() >= params.deadline:
        return StartResult.deadline_skip(task)
    own_context = context is None
    if own_context:
        context = RunContext(program)
    try:
        return _run_start(program, params, task, primed, context)
    finally:
        if own_context:
            context.close()


def _run_start(program, params, task, primed, context) -> StartResult:
    # The optimizer inner loop only consumes the scalar objective, so the
    # configured profile (default PENALTY_NATIVE) drives the loop, and the
    # accepted minimum is re-executed below to harvest branches.  All
    # profiles compute bit-identical values and outcomes, so this choice
    # never changes seeded results.
    representing = RepresentingFunction(
        program, context.tracker(task), profile=params.eval_profile,
        native_threads=params.native_threads,
    )
    # Within one start the saturation snapshot is frozen, so FOO_R is a pure
    # function of the input bits and memoizing it is sound.  The memo wraps
    # the objective *outside* basin hopping, which keeps no cache of its
    # own.  Under penalty-native the memo is the run's C one, armed for this
    # start, which also runs whole Powell searches natively (when the
    # kernel and the fused-search library are loaded); its misses are
    # counted into ``evaluations``.
    fused = context.objective(representing)
    objective = fused if fused is not None else BitPatternMemo(representing, arity=program.arity)
    rng = _LazyGenerator([params.root_seed, _STREAM_WORKER, task.index])
    found: list = []

    def callback(x: np.ndarray, f: float, _accepted: bool) -> bool:
        if f <= 0.0:  # a zero of FOO_R: stop this start (Sect. 5.2)
            found.append(x.tolist())
            return True
        return False

    try:
        if primed is not None:
            # The batched pass already executed FOO_R(x0); plant the value
            # and credit the execution so ``evaluations`` is identical to
            # the scalar path (where the optimizer's opening call is a memo
            # miss).
            objective.seed(task.x0, primed)
            representing.evaluations += 1
        result = basinhopping(
            objective,
            task.x0,
            n_iter=params.n_iter,
            local_minimizer=params.local_minimizer,
            rng=rng,
            callback=callback,
            local_options={"max_iterations": LOCAL_MAX_ITERATIONS},
        )
    finally:
        if fused is not None:
            representing.evaluations += fused.misses
    x_star = found[0] if found else result.x.tolist()
    value, coverage = representing.evaluate_with_coverage(x_star)
    return StartResult(
        index=task.index,
        x0=task.x0,
        x_star=tuple(x_star),
        value=float(value),
        covered=coverage.covered_mask(),
        last_conditional=coverage.last_conditional,
        last_outcome=coverage.last_outcome,
        evaluations=representing.evaluations,
    )
