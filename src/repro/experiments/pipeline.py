"""Declarative, resumable orchestration of the paper's experiments.

This module is the planning layer between the per-table experiment modules
and the service layer that actually executes jobs:

* an :class:`ExperimentSpec` declares what one table/figure needs -- which
  tools run over the benchmark suite (and whether line coverage is
  measured), or a self-contained script for the non-suite artifacts
  (Table 1, Figure 2, Table 4);
* :func:`plan_jobs` expands a set of specs into a flat plan of (case, tool)
  jobs, **deduplicated across specs** -- Table 2, Table 5 and Figure 5 all
  need the same CoverMe/Rand/AFL runs, so one ``repro run table2 table5
  figure5`` invocation executes each shared pair exactly once;
* :func:`execute_plan` submits the plan to a
  :class:`~repro.service.CoverageService` -- the same admission / dedup /
  result-cache front door the HTTP daemon serves -- so completed jobs load
  from the :class:`~repro.store.RunStore`, new ones are checkpointed the
  moment they finish, and an interrupted run resumes by skipping completed
  work;
* renderers (defined by the table modules) format the resulting
  :class:`~repro.experiments.runner.ComparisonRow`\\ s as thin views over
  the store.

Job ordering inside a case is semantic, not cosmetic: CoverMe runs first so
the baselines' budgets can be derived from its measured effort (the paper's
"ten times the CoverMe time" rule).  :func:`execute_plan` therefore
schedules in two waves -- every case's CoverMe job is submitted up front
(filling all service workers), then each case's baselines follow as its
CoverMe result lands.  The derived budget is fingerprinted into the
baseline job's key, so a baseline record is reused only when the CoverMe
effort it was calibrated against is unchanged.

The tool factories and fingerprint helpers moved to
:mod:`repro.service.jobs`; they are re-exported here unchanged for
backwards compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.experiments.runner import ComparisonRow, Profile, instrument_case  # noqa: F401
from repro.fdlibm.suite import BENCHMARKS, BenchmarkCase
from repro.service.core import CoverageService
from repro.service.jobs import (  # noqa: F401  (re-exported: legacy import site)
    _PROFILE_FP_EXCLUDE,
    _TOOL_FP_EXCLUDE,
    TOOL_FACTORIES,
    JobRequest,
    baseline_budget,
    build_job_key,
    coverme_budget,
    coverme_effort_from_payload,
    domain_tag,
    instrument_for_lookup,
    make_afl,
    make_austin,
    make_coverme,
    make_rand,
    profile_fingerprint,
    source_hash,
    tool_fingerprint,
)
from repro.store import RunStore, summary_from_dict


def coverme_first(tool_names: Iterable[str]) -> list[str]:
    """Order tool names with ``CoverMe`` first.

    This ordering is semantic: the baselines' budgets derive from CoverMe's
    measured effort (the paper's "ten times the CoverMe time" rule), so
    within a case CoverMe must run before them.  Both planners --
    :func:`plan_jobs` and :func:`repro.experiments.runner.compare_tools` --
    go through this one helper so the rule cannot drift between entry
    points.
    """
    return sorted(tool_names, key=lambda name: name != "CoverMe")


def tool_items_for(
    tool_factories: dict[str, Callable[[Profile], object]], measure_lines: bool
) -> list[tuple[str, Callable[[Profile], object], bool]]:
    """The ``(name, factory, measure_lines)`` job list for one case, in
    :func:`coverme_first` order (the shape :func:`_execute_cases` consumes)."""
    return [(name, tool_factories[name], measure_lines) for name in coverme_first(tool_factories)]


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one table/figure of the evaluation.

    Suite specs (``tools`` non-empty) expand into (case, tool) jobs over the
    benchmark suite and render via ``render(rows, profile)``.  Script specs
    (``script`` set) are self-contained artifacts with no per-case jobs
    (Table 1's walkthrough, Figure 2's optimizer demo, Table 4's registry).
    """

    name: str
    title: str
    tools: tuple[str, ...] = ()
    measure_lines: bool = False
    render: Optional[Callable[[list[ComparisonRow], Profile], str]] = field(
        default=None, compare=False
    )
    script: Optional[Callable[[Profile], str]] = field(default=None, compare=False)

    @property
    def is_suite(self) -> bool:
        return bool(self.tools)


_SPECS: dict[str, ExperimentSpec] = {}
_BUILTINS_LOADED = False


def register_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """Register a spec under its name (table modules call this at import)."""
    _SPECS[spec.name] = spec
    return spec


def _load_builtin_specs() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    # Importing the experiment modules registers their specs.
    from repro.experiments import figure2, figure5, table1, table2, table3, table4, table5  # noqa: F401

    _BUILTINS_LOADED = True


def available_specs() -> tuple[str, ...]:
    _load_builtin_specs()
    return tuple(sorted(_SPECS))


def get_spec(name: str) -> ExperimentSpec:
    _load_builtin_specs()
    try:
        return _SPECS[name]
    except KeyError:
        known = ", ".join(sorted(_SPECS))
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One (case, tool) unit of work."""

    case: BenchmarkCase = field(repr=False)
    tool: str = ""
    measure_lines: bool = False

    @property
    def id(self) -> str:
        return f"{self.case.key}/{self.tool}"


@dataclass
class JobPlan:
    """A deduplicated, ordered set of jobs grouped by case."""

    profile: Profile
    cases: list[BenchmarkCase]
    jobs_by_case: dict[str, list[Job]]

    @property
    def n_jobs(self) -> int:
        return sum(len(jobs) for jobs in self.jobs_by_case.values())

    def jobs(self) -> Iterable[Job]:
        for case in self.cases:
            yield from self.jobs_by_case[case.key]


def select_cases(profile: Profile, cases: Optional[Iterable[BenchmarkCase]] = None) -> list[BenchmarkCase]:
    selected = list(cases) if cases is not None else list(BENCHMARKS)
    if profile.max_cases is not None:
        selected = selected[: profile.max_cases]
    return selected


def plan_jobs(
    specs: Sequence[ExperimentSpec],
    profile: Profile,
    cases: Optional[Iterable[BenchmarkCase]] = None,
) -> JobPlan:
    """Expand suite specs into a flat job plan, deduplicated across specs.

    Two specs needing the same (case, tool) pair contribute **one** job; if
    either needs line coverage the merged job measures lines (a
    line-measuring summary is a strict superset of a branch-only one).
    CoverMe jobs are ordered first within each case because the baselines'
    budgets derive from CoverMe's measured effort.
    """
    selected = select_cases(profile, cases)
    # The merged tool set is plan-wide (it depends on the specs, not the case).
    merged: dict[str, bool] = {}
    for spec in specs:
        if not spec.is_suite:
            continue
        for tool in spec.tools:
            merged[tool] = merged.get(tool, False) or spec.measure_lines
    ordered = coverme_first(merged)
    jobs_by_case = {
        case.key: [Job(case=case, tool=tool, measure_lines=merged[tool]) for tool in ordered]
        for case in selected
    }
    return JobPlan(profile=profile, cases=selected, jobs_by_case=jobs_by_case)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class PipelineStats:
    """Execution counters: how much work ran versus came from the store."""

    total: int = 0
    executed: int = 0
    loaded: int = 0
    missing: int = 0

    def merge(self, other: "PipelineStats") -> None:
        self.total += other.total
        self.executed += other.executed
        self.loaded += other.loaded
        self.missing += other.missing

    def describe(self) -> str:
        return (
            f"{self.total} jobs: {self.executed} executed, {self.loaded} loaded from store"
            + (f", {self.missing} missing" if self.missing else "")
        )


@dataclass
class CaseOutcome:
    """Result of executing (or resolving) one case's job list."""

    row: ComparisonRow
    stats: PipelineStats
    missing_jobs: list[str] = field(default_factory=list)


#: Dispatch modes accepted by :func:`execute_plan` (the legacy names; they
#: map onto the service's inline/thread/process worker modes).
_DISPATCH_MODES = ("serial", "thread", "process")


def service_worker_mode(worker_mode: str, n_workers: int) -> str:
    """Map a pipeline dispatch mode onto a service worker mode.

    ``serial`` -- and any mode with one worker -- runs inline on the
    submitting thread (no queue, no worker threads); ``thread`` and
    ``process`` (with ``n_workers > 1``) run the service's persistent warm
    pool.  Process-mode dispatch into persistent stores is fully supported:
    service workers hand payloads back to the coordinating process, which
    owns the store's append handle.
    """
    if worker_mode not in _DISPATCH_MODES:
        known = ", ".join(_DISPATCH_MODES)
        raise ValueError(f"unknown worker mode {worker_mode!r}; known: {known}")
    if worker_mode == "serial" or n_workers <= 1:
        return "inline"
    return worker_mode


def _request_for(
    case: BenchmarkCase, tool_item: tuple[str, Callable[[Profile], object], bool], profile: Profile
) -> JobRequest:
    tool_name, factory, measure_lines = tool_item
    return JobRequest(
        case=case, tool=tool_name, profile=profile, measure_lines=measure_lines, factory=factory
    )


def _budget_for(tool_name: str, profile: Profile, coverme_effort: int):
    if tool_name == "CoverMe":
        return coverme_budget(profile)
    return baseline_budget(profile, coverme_effort)


def _lookup_case(
    case: BenchmarkCase,
    tool_items: list[tuple[str, Callable[[Profile], object], bool]],
    profile: Profile,
    store: Optional[RunStore],
    resume: bool,
) -> CaseOutcome:
    """Resolve one case purely from the store (the ``repro render`` path).

    Nothing executes; absent jobs are reported in ``missing_jobs``.  The
    budget chain mirrors execution: a baseline's key depends on the CoverMe
    effort, so a missing CoverMe record leaves the baselines keyed to the
    profile floor (and typically missing too).
    """
    if store is None:
        store = RunStore(None)
    program = instrument_for_lookup(case)
    stats = PipelineStats()
    missing: list[str] = []
    row = ComparisonRow(case=case, n_branches=program.n_branches)
    coverme_effort = profile.baseline_min_executions
    for tool_item in tool_items:
        tool_name = tool_item[0]
        stats.total += 1
        request = _request_for(case, tool_item, profile)
        key = build_job_key(request, _budget_for(tool_name, profile, coverme_effort))
        payload = store.get_satisfying(key) if resume else None
        if payload is None:
            stats.missing += 1
            missing.append(key.case_key + "/" + key.tool)
            continue
        stats.loaded += 1
        if tool_name == "CoverMe":
            coverme_effort = coverme_effort_from_payload(payload, profile)
        row.results[tool_name] = summary_from_dict(payload["summary"])
    return CaseOutcome(row=row, stats=stats, missing_jobs=missing)


def _execute_cases(
    cases: Sequence[BenchmarkCase],
    items_by_case: dict[str, list[tuple[str, Callable[[Profile], object], bool]]],
    profile: Profile,
    service: CoverageService,
    resume: bool,
) -> list[CaseOutcome]:
    """Run every case's job list through one shared service, in two waves.

    Wave 1 submits each case's CoverMe job immediately (they are mutually
    independent, so they saturate the worker pool); wave 2 follows each
    case -- in case order -- with its baselines as soon as its CoverMe
    result (which fixes their budgets) lands.  Results are folded back in
    case order, so rows are deterministic for any worker count.
    """
    reference_jobs: dict[str, object] = {}
    for case in cases:
        for tool_item in items_by_case[case.key]:
            if tool_item[0] == "CoverMe":
                reference_jobs[case.key] = service.submit(
                    _request_for(case, tool_item, profile),
                    budget=coverme_budget(profile),
                    resume=resume,
                )
                break

    outcomes: list[CaseOutcome] = []
    pending: list[tuple[int, str, object]] = []  # (case index, tool, job)
    for index, case in enumerate(cases):
        tool_items = items_by_case[case.key]
        stats = PipelineStats(total=len(tool_items))
        row = ComparisonRow(case=case, n_branches=instrument_for_lookup(case).n_branches)
        outcomes.append(CaseOutcome(row=row, stats=stats))
        coverme_effort = profile.baseline_min_executions
        if case.key in reference_jobs:
            outcome = service.wait(reference_jobs[case.key])
            _fold(outcomes[index], "CoverMe", outcome)
            coverme_effort = coverme_effort_from_payload(outcome.payload, profile)
        for tool_item in tool_items:
            tool_name = tool_item[0]
            if tool_name == "CoverMe":
                continue
            job = service.submit(
                _request_for(case, tool_item, profile),
                budget=_budget_for(tool_name, profile, coverme_effort),
                resume=resume,
            )
            pending.append((index, tool_name, job))

    for index, tool_name, job in pending:
        _fold(outcomes[index], tool_name, service.wait(job))
    return outcomes


def _fold(case_outcome: CaseOutcome, tool_name: str, outcome) -> None:
    """Fold one resolved job into its case's row and counters."""
    if outcome.cached:
        case_outcome.stats.loaded += 1
    else:
        case_outcome.stats.executed += 1
    case_outcome.row.results[tool_name] = outcome.summary


def execute_plan(
    plan: JobPlan,
    store: Optional[RunStore] = None,
    tool_factories: Optional[dict[str, Callable[[Profile], object]]] = None,
    resume: bool = True,
    execute: bool = True,
    n_workers: int = 1,
    worker_mode: str = "thread",
    service: Optional[CoverageService] = None,
) -> tuple[dict[str, ComparisonRow], PipelineStats, list[str]]:
    """Execute a job plan through the coverage service.

    Returns ``(rows_by_case_key, stats, missing_jobs)``.  Jobs are
    submitted to one shared :class:`~repro.service.CoverageService`
    (constructed over ``store`` unless ``service`` is passed) in the
    two-wave order of :func:`_execute_cases`; each job is checkpointed to
    the store individually, so killing the run loses at most the jobs in
    flight.  All dispatch modes -- including ``process`` -- work with
    persistent stores: workers return payloads and the coordinating
    process writes them.  Seeded results are bit-identical for every
    ``n_workers`` and ``worker_mode`` (wall-time fields
    aside, nothing in a stored record depends on scheduling).
    """
    factories = tool_factories if tool_factories is not None else TOOL_FACTORIES
    items_by_case = {
        case.key: [
            (job.tool, factories[job.tool], job.measure_lines)
            for job in plan.jobs_by_case[case.key]
        ]
        for case in plan.cases
    }
    if not execute:
        outcomes = [
            _lookup_case(case, items_by_case[case.key], plan.profile, store, resume)
            for case in plan.cases
        ]
    else:
        owns = service is None
        if owns:
            service = CoverageService(
                store=store,
                worker_mode=service_worker_mode(worker_mode, n_workers),
                n_workers=n_workers,
                resume=resume,
            )
        try:
            outcomes = _execute_cases(plan.cases, items_by_case, plan.profile, service, resume)
        finally:
            if owns:
                service.close(close_store=False)
    stats = PipelineStats()
    missing: list[str] = []
    rows: dict[str, ComparisonRow] = {}
    for case, outcome in zip(plan.cases, outcomes):
        stats.merge(outcome.stats)
        missing.extend(outcome.missing_jobs)
        rows[case.key] = outcome.row
    return rows, stats, missing


# ---------------------------------------------------------------------------
# Spec-level driver (what the CLI calls)
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """Everything one ``repro run``/``repro render`` invocation produced."""

    profile: Profile
    rows_by_spec: dict[str, list[ComparisonRow]] = field(default_factory=dict)
    rendered: dict[str, str] = field(default_factory=dict)
    stats: PipelineStats = field(default_factory=PipelineStats)
    missing_jobs: list[str] = field(default_factory=list)


def run_specs(
    specs: Sequence[ExperimentSpec],
    profile: Profile,
    store: Optional[RunStore] = None,
    cases: Optional[Iterable[BenchmarkCase]] = None,
    resume: bool = True,
    execute: bool = True,
    n_workers: int = 1,
    worker_mode: str = "thread",
    service=None,
) -> RunReport:
    """Plan, execute and render a set of experiment specs as one batch.

    Suite specs share one deduplicated job plan; script specs run their
    self-contained artifact.  With ``execute=False`` (the ``repro render``
    path) nothing is executed: suite rows are resolved from the store only,
    absent jobs are listed in ``missing_jobs`` instead of being run, and
    script specs (which have no stored records) are reported as missing.
    ``service`` overrides the locally-constructed
    :class:`~repro.service.CoverageService` (anything with its
    ``submit``/``wait`` surface) and is left open afterwards; the caller
    owns it.
    """
    report = RunReport(profile=profile)
    suite_specs = [spec for spec in specs if spec.is_suite]
    if suite_specs and execute:
        plan = plan_jobs(suite_specs, profile, cases=cases)
        rows_by_case, stats, missing = execute_plan(
            plan, store=store, resume=resume, execute=True,
            n_workers=n_workers, worker_mode=worker_mode,
            service=service,
        )
        report.stats = stats
        report.missing_jobs = missing
        for spec in suite_specs:
            rows = [
                ComparisonRow(
                    case=rows_by_case[case.key].case,
                    n_branches=rows_by_case[case.key].n_branches,
                    results={
                        tool: rows_by_case[case.key].results[tool]
                        for tool in spec.tools
                        if tool in rows_by_case[case.key].results
                    },
                )
                for case in plan.cases
            ]
            report.rows_by_spec[spec.name] = rows
            if spec.render is not None:
                report.rendered[spec.name] = spec.render(rows, profile)
    elif suite_specs:
        # Render mode resolves each spec against its *own* plan: the merged
        # plan's line-measuring keys would make a branch-only store miss for
        # every spec, and one spec's absent jobs must not suppress a sibling
        # whose records all resolved.  Lookups are cheap, so losing the
        # cross-spec dedup costs nothing here.
        for spec in suite_specs:
            plan = plan_jobs([spec], profile, cases=cases)
            rows_by_case, stats, missing = execute_plan(
                plan, store=store, resume=resume, execute=False,
                n_workers=n_workers, worker_mode=worker_mode,
            )
            report.stats.merge(stats)
            report.missing_jobs.extend(
                job for job in missing if job not in report.missing_jobs
            )
            rows = [rows_by_case[case.key] for case in plan.cases]
            report.rows_by_spec[spec.name] = rows
            if spec.render is not None and not missing:
                report.rendered[spec.name] = spec.render(rows, profile)
    for spec in specs:
        if spec.is_suite:
            continue
        if spec.script is None:
            raise ValueError(f"spec {spec.name!r} declares neither tools nor a script")
        if not execute:
            # Script specs have no stored records to render from; honoring
            # render's no-execution contract means reporting them as missing
            # rather than silently running their (possibly expensive) script.
            report.stats.total += 1
            report.stats.missing += 1
            report.missing_jobs.append(f"{spec.name} (script spec; requires `repro run`)")
            continue
        report.rendered[spec.name] = spec.script(profile)
    return report
