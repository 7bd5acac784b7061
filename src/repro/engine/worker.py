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
first draws from it.  Starts within a batch share the same snapshot, which makes them
independent of one another -- the property that lets the engine run them on
any number of workers and still merge the results deterministically.

Under the ``PENALTY_SPECIALIZED`` profile the epoch protocol composes with
this structure for free: the per-start tracker snapshot freezes the
saturation mask, so one start triggers at most one variant lookup, and the
program-level + module-level specialization caches make that lookup a
dictionary hit whenever any earlier start of the same worker (thread clones
and process workers each own a program instance) already ran against the
same mask.  Epoch invalidation therefore needs no cross-worker coordination:
each worker's representing function re-reads its tracker's mask per call and
re-specializes exactly when a batch reduction flipped a saturation bit.

The same :func:`run_start` body serves all three execution modes:

* **serial** and **thread** workers call it directly on (clones of) the
  in-process :class:`~repro.instrument.program.InstrumentedProgram`;
* **process** workers receive the *original* callable (picklable by module
  reference), re-instrument it once per worker process, and cache the result
  keyed by the program's origin, so the instrumentation cost is paid once per
  worker rather than once per start.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.representing import RepresentingFunction
from repro.core.saturation import SaturationTracker
from repro.instrument.native.local_min import native_objective
from repro.instrument.program import InstrumentedProgram, ProgramOrigin, instrument
from repro.instrument.runtime import BranchId, ExecutionProfile
from repro.optimize.basinhopping import basinhopping
from repro.optimize.memo import BitPatternMemo

#: Sub-stream tag keeping worker RNGs disjoint from the scheduler's draws.
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
    """The per-run constants every start needs (one copy per chunk, not per start)."""

    local_minimizer: str
    n_iter: int
    root_seed: int
    deadline: Optional[float] = None
    eval_profile: str = ExecutionProfile.PENALTY_NATIVE.value
    native_threads: int = 1


@dataclass(frozen=True)
class StartTask:
    """One scheduled start: its global index, starting point and snapshot."""

    index: int
    x0: tuple[float, ...]
    covered: frozenset[BranchId]
    infeasible: frozenset[BranchId]


@dataclass
class StartResult:
    """What one start produced, in the shape the deterministic merge consumes."""

    index: int
    x0: tuple[float, ...]
    x_star: tuple[float, ...]
    value: float
    covered: frozenset[BranchId] = frozenset()
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
    tracker = SaturationTracker(program, covered=set(covered), infeasible=set(infeasible))
    representing = RepresentingFunction(
        program, tracker, profile=params.eval_profile, native_threads=params.native_threads
    )
    X = np.ascontiguousarray([t.x0 for t in eligible], dtype=np.float64)
    values = representing.evaluate_batch(X)
    return {t.index: float(v) for t, v in zip(eligible, values)}


def run_start(
    program: InstrumentedProgram,
    params: StartParams,
    task: StartTask,
    primed: Optional[float] = None,
) -> StartResult:
    """Execute one start against ``task``'s saturation snapshot.

    ``primed`` is the pre-computed ``FOO_R(x0)`` from :func:`prime_chunk`;
    when present it is planted in the memo and one evaluation is credited,
    so the reported evaluation count matches the unprimed run.
    """
    if params.deadline is not None and time.time() >= params.deadline:
        return StartResult.deadline_skip(task)

    tracker = SaturationTracker(
        program, covered=set(task.covered), infeasible=set(task.infeasible)
    )
    # The optimizer inner loop only consumes the scalar objective, so the
    # configured profile (default PENALTY_NATIVE) drives the loop, and the
    # accepted minimum is re-executed below to harvest branches.  All
    # profiles compute bit-identical values and outcomes, so this choice
    # never changes seeded results.
    representing = RepresentingFunction(
        program, tracker, profile=params.eval_profile, native_threads=params.native_threads
    )
    # Within one start the saturation snapshot is frozen, so FOO_R is a pure
    # function of the input bits and memoizing it is sound.  The memo wraps
    # the objective *outside* basin hopping, which keeps no cache of its
    # own.  Under penalty-native
    # the memo is a C one that also runs whole Powell searches natively
    # (when the kernel and the fused-search library are loaded); its
    # misses are counted into ``evaluations`` before it is freed.
    fused = native_objective(representing)
    objective = fused if fused is not None else BitPatternMemo(representing, arity=program.arity)
    rng = _LazyGenerator([params.root_seed, _STREAM_WORKER, task.index])
    found: dict[str, np.ndarray] = {}

    def callback(x: np.ndarray, f: float, _accepted: bool) -> bool:
        if f <= 0.0:  # a zero of FOO_R: stop this start (Sect. 5.2)
            found["x"] = np.array(x, dtype=float, copy=True)
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
            np.asarray(task.x0, dtype=float),
            n_iter=params.n_iter,
            local_minimizer=params.local_minimizer,
            rng=rng,
            callback=callback,
            local_options={"max_iterations": LOCAL_MAX_ITERATIONS},
        )
    finally:
        if fused is not None:
            representing.evaluations += fused.misses
            fused.close()
    x_star = found["x"] if "x" in found else result.x
    value, coverage = representing.evaluate_with_coverage(x_star)
    return StartResult(
        index=task.index,
        x0=task.x0,
        x_star=tuple(float(v) for v in np.atleast_1d(x_star)),
        value=float(value),
        covered=coverage.covered,
        last_conditional=coverage.last_conditional,
        last_outcome=coverage.last_outcome,
        evaluations=representing.evaluations,
    )


# -- process-pool side ----------------------------------------------------------------

#: Per-worker-process cache of instrumented programs, keyed by origin.
_PROGRAM_CACHE: dict[tuple, InstrumentedProgram] = {}


def _origin_key(origin: ProgramOrigin) -> tuple:
    return (
        origin.target.__module__,
        origin.target.__qualname__,
        tuple((f.__module__, f.__qualname__) for f in origin.extra_functions),
        origin.signature,
    )


def run_chunk_in_worker(
    origin: ProgramOrigin, params: StartParams, tasks: list[StartTask]
) -> list[StartResult]:
    """Process-pool entry point: instrument (cached) then run a chunk of starts."""
    key = _origin_key(origin)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        program = instrument(
            origin.target,
            extra_functions=origin.extra_functions,
            signature=origin.signature,
        )
        _PROGRAM_CACHE[key] = program
    primed = prime_chunk(program, params, tasks)
    if primed is None:
        return [run_start(program, params, task) for task in tasks]
    return [run_start(program, params, task, primed=primed.get(task.index)) for task in tasks]


def origin_is_picklable(origin: Optional[ProgramOrigin]) -> bool:
    """True when the program's origin can be shipped to a worker process."""
    if origin is None:
        return False
    try:
        pickle.dumps(origin)
    except Exception:
        return False
    return True
