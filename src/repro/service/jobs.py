"""The service's unit of work: one (case, tool) coverage job.

A *job* is one benchmark case run under one tool configuration.  Its
identity is the :class:`~repro.store.JobKey` fingerprint -- the content
address covering the instrumented source hash, the tool and profile
fingerprints, the (possibly derived) budget, the seed, the input domain and
whether line coverage was measured.  Everything in the service layer (the
result cache, in-flight coalescing) keys on that fingerprint,
which is why identical submissions from any entry point -- CLI, pipeline,
HTTP daemon -- dedupe onto one record.

This module owns what :mod:`repro.experiments.pipeline` used to own:

* the named tool factories (module-level so process workers can pickle
  them),
* the profile/tool/source fingerprints and their exclusion sets,
* the budget rules (CoverMe gets the profile's wall-clock budget; baselines
  get the paper's "N times CoverMe's effort" rule),
* single-job execution (:func:`execute_job`), which is the one place a
  tool actually runs against an instrumented program.

The pipeline re-exports the fingerprint helpers for backwards
compatibility; new code should import them from here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import warnings as _warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.baselines.afl import AFLFuzzer
from repro.baselines.austin import AustinTester
from repro.baselines.harness import Budget, run_tool
from repro.baselines.random_testing import RandomTester
from repro.core.config import CoverMeConfig
from repro.experiments.runner import CoverMeTool, Profile, coverme_tool, instrument_case
from repro.fdlibm.suite import BenchmarkCase
from repro.store import JobKey, canonical_json, fingerprint_of, summary_to_dict

# ---------------------------------------------------------------------------
# Tool factories (module-level so process workers can pickle them)
# ---------------------------------------------------------------------------


def make_coverme(profile: Profile) -> CoverMeTool:
    return coverme_tool(profile)


def make_rand(profile: Profile) -> RandomTester:
    return RandomTester(seed=profile.seed + 1)


def make_afl(profile: Profile) -> AFLFuzzer:
    return AFLFuzzer(seed=profile.seed + 2)


def make_austin(profile: Profile) -> AustinTester:
    return AustinTester(seed=profile.seed + 3)


#: Named factories used by the experiment specs, the daemon's submit
#: endpoint, and reusable by custom callers.
TOOL_FACTORIES: dict[str, Callable[[Profile], object]] = {
    "CoverMe": make_coverme,
    "Rand": make_rand,
    "AFL": make_afl,
    "Austin": make_austin,
}


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

#: Profile fields that provably do not change per-job results: ``name`` is a
#: label (two profiles with the same values are the same work) and
#: ``max_cases`` selects *which* jobs run.
_PROFILE_FP_EXCLUDE = frozenset({"name", "max_cases"})

#: Tool state excluded from fingerprints: mutable run-to-run scratch, and
#: CoverMe knobs that are result-neutral (every execution profile computes
#: bit-identical representing-function values, so neither ``eval_profile``
#: nor ``native_threads`` can change stored results; ``progress`` is a pure
#: observer the service attaches to stream events).
_TOOL_FP_EXCLUDE = frozenset(
    {"last_evaluations", "eval_profile", "native_threads", "progress"}
)


def profile_fingerprint(profile: Profile) -> str:
    payload = {
        k: v for k, v in dataclasses.asdict(profile).items() if k not in _PROFILE_FP_EXCLUDE
    }
    return fingerprint_of(payload)[:16]


def _strip_excluded(obj):
    if isinstance(obj, dict):
        return {k: _strip_excluded(v) for k, v in obj.items() if k not in _TOOL_FP_EXCLUDE}
    return obj


def tool_fingerprint(tool) -> str:
    """Content fingerprint of a tool's configuration (not its identity)."""
    if dataclasses.is_dataclass(tool):
        state = _strip_excluded(dataclasses.asdict(tool))
    elif type(tool).__repr__ is not object.__repr__:
        # Hand-rolled tools with a real repr: their repr is their config.
        state = {"repr": repr(tool)}
    else:
        # The default object repr embeds a memory address: fingerprinting it
        # would give every run a fresh key and silently disable resume.
        raise ValueError(
            f"cannot fingerprint tool {type(tool).__name__}: make it a dataclass "
            "or give it a __repr__ that captures its configuration"
        )
    state["__type__"] = type(tool).__name__
    return fingerprint_of(state)[:16]


def source_hash(program) -> str:
    """SHA-256 of the instrumented source (entry + extras, post-AST-pass)."""
    return hashlib.sha256(program.source.encode("utf-8")).hexdigest()[:16]


#: This thread's instrumented programs, one per case (see
#: :func:`instrument_for_lookup`).
_PROGRAMS = threading.local()


def instrument_for_lookup(case: BenchmarkCase):
    """Instrument a case once per thread for key building and store lookups.

    Key building only reads ``n_branches`` and the source hash, and keeps
    the AST pass out of the admission path.  :func:`execute_job` reuses the
    program for execution too -- the warm-worker guarantee that
    instrumented sources (and, downstream, the specialization and native
    caches keyed on them) stay hot across jobs.  The cache is per thread
    because a run writes to its program: the one ``RuntimeHandle``, the
    native kernel's mask words and the specialized namespaces.  Two thread
    workers running jobs on one case therefore each get their own program;
    inline and process workers run their jobs in one thread, so they still
    instrument each case once.
    """
    programs = vars(_PROGRAMS).setdefault("by_case", {})
    program = programs.get(case)
    if program is None:
        program = programs[case] = instrument_case(case)
    return program


def domain_tag(case: BenchmarkCase) -> str:
    low, high = case.domain()
    return canonical_json([list(low), list(high)])


# ---------------------------------------------------------------------------
# Requests and budgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobRequest:
    """Everything needed to identify and execute one job.

    ``factory`` overrides the named :data:`TOOL_FACTORIES` entry (custom
    tools); it is excluded from equality because the job's semantic identity
    is the :class:`~repro.store.JobKey` built from the *instantiated* tool's
    fingerprint, not the factory object.
    """

    case: BenchmarkCase = field(repr=False)
    tool: str = "CoverMe"
    profile: Profile = field(default=None, repr=False)  # type: ignore[assignment]
    measure_lines: bool = False
    factory: Optional[Callable[[Profile], object]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.profile is None:
            raise ValueError("JobRequest requires a Profile")

    @property
    def id(self) -> str:
        return f"{self.case.key}/{self.tool}"

    def resolve_factory(self) -> Callable[[Profile], object]:
        if self.factory is not None:
            return self.factory
        try:
            return TOOL_FACTORIES[self.tool]
        except KeyError:
            known = ", ".join(sorted(TOOL_FACTORIES))
            raise ValueError(f"unknown tool {self.tool!r}; known: {known}") from None


def coverme_budget(profile: Profile) -> Budget:
    """CoverMe's budget: the profile's wall-clock allowance, unbounded count."""
    return Budget(max_seconds=profile.coverme_time_budget)


def baseline_budget(profile: Profile, coverme_effort: int) -> Budget:
    """A baseline's budget derived from CoverMe's measured effort (the
    paper's "ten times the CoverMe time" rule, execution-count analogue)."""
    return Budget(
        max_executions=max(
            profile.baseline_min_executions,
            profile.baseline_execution_factor * coverme_effort,
        ),
        max_seconds=(
            profile.coverme_time_budget * profile.baseline_execution_factor
            if profile.coverme_time_budget is not None
            else None
        ),
    )


def coverme_effort_from_payload(payload: Optional[dict], profile: Profile) -> int:
    """The baseline-budget reference effort given a CoverMe record payload."""
    if payload is None:
        return profile.baseline_min_executions
    return max(payload.get("tool_evaluations") or 0, profile.baseline_min_executions)


def derive_budget(request: JobRequest, store=None, resume: bool = True) -> Budget:
    """The budget a bare submission (no explicit budget) gets.

    CoverMe jobs take the profile's wall-clock budget.  Baselines derive
    from the case's stored CoverMe record under the same profile when one
    exists (matching the pipeline's CoverMe-first ordering); otherwise the
    profile's ``baseline_min_executions`` floor applies.  The derived budget
    is fingerprinted into the job key, so a baseline record is reused only
    when the CoverMe effort it was calibrated against is unchanged.
    """
    profile = request.profile
    if request.tool == "CoverMe":
        return coverme_budget(profile)
    payload = None
    if resume and store is not None:
        reference = JobRequest(case=request.case, tool="CoverMe", profile=profile)
        payload = store.get_satisfying(build_job_key(reference, coverme_budget(profile)))
    return baseline_budget(profile, coverme_effort_from_payload(payload, profile))


def build_job_key(request: JobRequest, budget: Budget, tool=None) -> JobKey:
    """The content address of a job: request + budget -> :class:`JobKey`."""
    profile = request.profile
    if tool is None:
        tool = request.resolve_factory()(profile)
    return JobKey(
        case_key=request.case.key,
        tool=request.tool,
        source_hash=source_hash(instrument_for_lookup(request.case)),
        tool_fingerprint=tool_fingerprint(tool),
        profile_fingerprint=profile_fingerprint(profile),
        budget_fingerprint=budget.fingerprint(),
        seed=profile.seed,
        measure_lines=request.measure_lines,
        domain=domain_tag(request.case),
        profile_name=profile.name,
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class ExecutedJob:
    """What one execution produced: the storable payload plus side-channel
    diagnostics (warnings) that must *not* enter the payload -- stored
    records stay byte-identical whether or not a tier degraded en route."""

    payload: dict
    warnings: list[str] = field(default_factory=list)


def execute_job(
    request: JobRequest,
    budget: Budget,
    progress: Optional[Callable[[dict], None]] = None,
) -> ExecutedJob:
    """Execute one job and return its storable payload.

    This is the single execution choke point of the service layer: the tool
    is instantiated fresh (per-job seeding), the program comes from the
    warm per-thread instrumentation cache, and warnings raised during the
    run (notably the one-time native-tier degradation ``RuntimeWarning``)
    are captured and surfaced in :attr:`ExecutedJob.warnings` instead of
    dying on a worker's stderr.  Warning capture uses the process-wide
    filter state, so under concurrent thread workers a warning may
    attribute to an overlapping job -- acceptable for diagnostics, and the
    payload itself is never affected.

    ``progress`` (when given and the tool is CoverMe) is attached as the
    engine's result-neutral batch observer; it is excluded from
    fingerprints.
    """
    program = instrument_for_lookup(request.case)
    tool = request.resolve_factory()(request.profile)
    if progress is not None and isinstance(getattr(tool, "config", None), CoverMeConfig):
        tool.config = dataclasses.replace(tool.config, progress=progress)
    captured: list[str] = []
    with _warnings.catch_warnings(record=True) as seen:
        _warnings.simplefilter("always")
        summary = run_tool(
            tool, program, budget, original=request.case.entry if request.measure_lines else None
        )
    for item in seen:
        captured.append(f"{item.category.__name__}: {item.message}")
    payload = {
        "summary": summary_to_dict(summary),
        "tool_evaluations": getattr(tool, "last_evaluations", None),
    }
    return ExecutedJob(payload=payload, warnings=captured)


def execute_job_remote(request: JobRequest, budget: Budget) -> tuple[dict, list[str]]:
    """Process-worker entry point: plain picklable in, plain picklable out.

    Runs in a persistent worker process, so the instrumentation cache (and
    the specialization/native caches hanging off the instrumented programs)
    stays warm across the jobs it runs.
    Progress streaming is not available across the process boundary; the
    coordinating service still emits queued/running/done events.  The
    native kernels a job needs are compiled inside the job, so none is
    still building when it returns.
    """
    executed = execute_job(request, budget)
    return executed.payload, executed.warnings
