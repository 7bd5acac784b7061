"""Configuration for the CoverMe driver (the inputs of Algorithm 1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.branch_distance import DEFAULT_EPSILON
from repro.instrument.runtime import ExecutionProfile, check_execution_profile

#: Fixed default batch size of the search engine.  The batch is the unit of
#: snapshot freshness *and* the unit of parallel dispatch; it is a constant
#: (never derived from ``n_workers``) so that seeded runs produce identical
#: results for any worker count.
DEFAULT_BATCH_SIZE = 8


@dataclass
class CoverMeConfig:
    """Parameters of Algorithm 1 plus implementation knobs.

    Attributes:
        n_start: Number of random starting points (``n_start`` in Algorithm 1).
            The paper's evaluation uses 500; the default here is smaller so a
            typical laptop run finishes quickly, and the experiments' "full"
            profile restores the paper's value.
        n_iter: Number of Monte-Carlo iterations per basin-hopping run
            (``n_iter`` in Algorithm 1; the paper uses 5).
        local_minimizer: Name of the local optimization algorithm ``LM``;
            the paper uses Powell.  With the ``builtin`` backend this must
            be a registered local minimizer ("powell", "nelder-mead",
            "compass", or anything added via
            :func:`repro.optimize.local.register_local_minimizer`); other
            backends interpret the name themselves (e.g. ``scipy`` accepts
            any ``scipy.optimize.minimize`` method such as "L-BFGS-B").
        backend: Which basin-hopping implementation drives Step 3.  Any name
            in :func:`repro.optimize.registry.available_backends`; the
            defaults are ``"builtin"`` (our MCMC implementation of
            Algorithm 1 lines 24-34) and ``"scipy"`` (the paper's
            off-the-shelf SciPy Basinhopping).
        epsilon: The small positive constant of Def. 4.1.
        step_size: Scale of the Monte-Carlo perturbation ``delta``.
        temperature: Metropolis annealing temperature ``T`` (the paper uses 1).
        start_scale: Standard deviation of the random starting points.
        seed: Seed for all pseudo-randomness (None for nondeterministic runs).
        mark_infeasible: Enable the infeasible-branch heuristic of Sect. 5.3.
        zero_tolerance: Threshold below which ``FOO_R(x*)`` counts as zero.
            Exact zeros are produced by construction, so 0.0 is faithful; a
            tiny positive tolerance guards against backend round-off.
        max_evaluations: Optional cap on representing-function evaluations.
        time_budget: Optional wall-clock cap in seconds.
        n_workers: Number of workers running basin-hopping starts in
            parallel.  1 (the default) runs everything in-process; seeded
            results are identical for every value.
        worker_mode: How parallel starts execute -- ``"auto"`` (process
            workers when the program's origin is picklable, else thread
            clones, else serial), ``"process"``, ``"thread"`` or ``"serial"``.
        start_strategy: Start-point strategy of the scheduler
            (``"random-normal"``, ``"latin-hypercube"``, ``"signature-box"``).
        batch_size: Starts per scheduling batch; all starts of a batch share
            one saturation snapshot.  ``None`` selects the engine default.
            Must not depend on ``n_workers`` or seeded runs lose their
            worker-count independence.
        eval_profile: Execution profile of the optimizer inner loop --
            ``"penalty-native"`` (the default, the machine-code tier: the
            specialized lowering is emitted as C, compiled with the system
            ``cc`` and called through ctypes, and each local search runs in
            one C call; degrades to ``penalty-specialized`` with a one-time
            warning when no compiler is present),
            ``"penalty-specialized"`` (the compile-time tier: the saturation
            mask is baked into re-generated instrumented source, re-compiled
            only when saturation flips a bit; the engine evaluates the
            ``x0`` vectors of each chunk of two or more starts in one
            batched call, a per-row loop over the compiled variant) or
            ``"full-trace"`` (the recording runtime, the reference).  All
            profiles compute bit-identical representing-function values and
            produce identical seeded results.  Every start serves repeated
            evaluations at bit-identical inputs from a per-start memo, and
            accepted minima are re-executed to harvest their branches (on
            the allocation-free fast runtime under the compiled profiles),
            so the reduction sees the same branch sets regardless of this
            setting.
        native_threads: Native-tier batch threads.  Under the
            ``penalty-native`` profile,
            :meth:`~repro.core.representing.RepresentingFunction.evaluate_batch`
            runs the emitted ``sp_batch_mt`` entry with this many C threads
            (private covered-bit partials merged in fixed thread-index
            order, so ``r`` and the covered set are bit-identical for any
            value).  1 (the default) keeps the serial row loop.  The engine
            itself issues no native batches (one proposal per hop, native
            chunks are not primed).  Result-neutral, like ``n_workers``,
            and therefore excluded from store fingerprints.
        progress: Optional observer called by the engine after each batch
            reduction with a dict of running counters (batch index, starts
            issued/used, evaluations, covered/saturated branch counts).  It
            is strictly an observer -- it must not mutate engine state, and
            it cannot change results (the service layer uses it to stream
            job progress to daemon clients); it is excluded from store
            fingerprints for the same reason.  The callback runs on the
            engine's reduction thread and should return quickly.
    """

    n_start: int = 100
    n_iter: int = 5
    local_minimizer: str = "powell"
    backend: str = "builtin"
    epsilon: float = DEFAULT_EPSILON
    step_size: float = 1.0
    temperature: float = 1.0
    start_scale: float = 10.0
    seed: Optional[int] = None
    mark_infeasible: bool = True
    zero_tolerance: float = 0.0
    max_evaluations: Optional[int] = None
    time_budget: Optional[float] = None
    local_max_iterations: int = 40
    verbose: bool = False
    n_workers: int = 1
    worker_mode: str = "auto"
    start_strategy: str = "random-normal"
    batch_size: Optional[int] = None
    eval_profile: str = ExecutionProfile.PENALTY_NATIVE.value
    native_threads: int = 1
    progress: Optional[Callable[[dict], None]] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Imported lazily: the registries live above repro.core in the layer
        # diagram and pulling them in at module-import time would be cyclic.
        from repro.engine.pool import available_worker_modes
        from repro.engine.scheduler import available_strategies
        from repro.optimize.registry import available_backends, get_local_minimizer

        if self.n_start < 1:
            raise ValueError("n_start must be >= 1")
        if self.n_iter < 0:
            raise ValueError("n_iter must be >= 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.step_size <= 0:
            raise ValueError("step_size must be > 0")
        if self.start_scale <= 0:
            raise ValueError("start_scale must be > 0")
        if self.backend.lower() not in available_backends():
            known = ", ".join(available_backends())
            raise ValueError(f"unknown backend {self.backend!r}; known: {known}")
        if not isinstance(self.local_minimizer, str) or not self.local_minimizer:
            raise ValueError("local_minimizer must be a non-empty string")
        if self.backend.lower() == "builtin":
            # Only the builtin backend resolves LM through our registry;
            # other backends (e.g. scipy) accept their own method names
            # ("L-BFGS-B", ...) and validate them at run time.
            get_local_minimizer(self.local_minimizer)  # raises ValueError on unknown names
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.worker_mode not in available_worker_modes():
            known = ", ".join(available_worker_modes())
            raise ValueError(f"unknown worker mode {self.worker_mode!r}; known: {known}")
        if self.start_strategy not in available_strategies():
            known = ", ".join(available_strategies())
            raise ValueError(f"unknown start strategy {self.start_strategy!r}; known: {known}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        check_execution_profile(self.eval_profile)
        if self.native_threads < 1:
            raise ValueError("native_threads must be >= 1")
        if self.progress is not None and not callable(self.progress):
            raise ValueError("progress must be a callable (or None)")

    def effective_batch_size(self) -> int:
        """The batch size the engine actually uses."""
        return self.batch_size if self.batch_size is not None else DEFAULT_BATCH_SIZE

    @classmethod
    def paper(cls, **overrides) -> "CoverMeConfig":
        """The exact parameter settings of the paper's evaluation (Sect. 6.1)."""
        defaults = dict(n_start=500, n_iter=5, local_minimizer="powell")
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def smoke(cls, **overrides) -> "CoverMeConfig":
        """A fast profile for unit tests and CI."""
        defaults = dict(n_start=30, n_iter=3, local_minimizer="powell", seed=0)
        defaults.update(overrides)
        return cls(**defaults)
