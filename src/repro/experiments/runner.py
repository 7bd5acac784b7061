"""Shared experiment infrastructure: profiles, tool adapters, table formatting.

This module is the *configuration and rendering* layer of the experiments:
profiles, the CoverMe tool adapter, row/table formatting.  Planning lives
in :mod:`repro.experiments.pipeline` and execution in
:mod:`repro.service`; :func:`compare_tools` runs a set of tools over the
suite by submitting through the coverage service (against an ephemeral
store unless one is passed), the same resumable execution path the CLI and
the daemon use.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.baselines.harness import Budget
from repro.core.config import CoverMeConfig
from repro.core.coverme import CoverMe
from repro.core.report import ToolRunSummary
from repro.fdlibm.suite import BenchmarkCase
from repro.instrument.program import InstrumentedProgram, instrument
from repro.instrument.signature import ProgramSignature


@dataclass(frozen=True)
class Profile:
    """Size of an experiment run.

    ``smoke`` keeps the whole harness in CI-friendly time; ``default`` covers
    every benchmark with moderate budgets; ``full`` restores the paper's
    ``n_start = 500`` and the 10x budget for the baseline tools.  All of
    them evaluate on :class:`CoverMeConfig`'s default native tier, which
    degrades to the specialized tier without a C compiler; the tier never
    changes results.
    """

    name: str
    n_start: int
    n_iter: int
    max_cases: Optional[int]
    coverme_time_budget: Optional[float]
    baseline_execution_factor: int
    baseline_min_executions: int
    seed: int = 0

    def coverme_config(self) -> CoverMeConfig:
        return CoverMeConfig(
            n_start=self.n_start,
            n_iter=self.n_iter,
            local_minimizer="powell",
            seed=self.seed,
            time_budget=self.coverme_time_budget,
        )


PROFILES: dict[str, Profile] = {
    "smoke": Profile(
        name="smoke",
        n_start=40,
        n_iter=5,
        max_cases=5,
        coverme_time_budget=4.0,
        baseline_execution_factor=3,
        baseline_min_executions=1500,
    ),
    "default": Profile(
        name="default",
        n_start=40,
        n_iter=5,
        max_cases=None,
        coverme_time_budget=6.0,
        baseline_execution_factor=10,
        baseline_min_executions=5000,
    ),
    "full": Profile(
        name="full",
        n_start=500,
        n_iter=5,
        max_cases=None,
        coverme_time_budget=None,
        baseline_execution_factor=10,
        baseline_min_executions=20000,
    ),
}


@dataclass
class ComparisonRow:
    """One benchmark function's results across all compared tools."""

    case: BenchmarkCase
    n_branches: int
    results: dict[str, ToolRunSummary] = field(default_factory=dict)

    def coverage(self, tool: str) -> float:
        return self.results[tool].branch_coverage_percent if tool in self.results else float("nan")

    def time(self, tool: str) -> float:
        return self.results[tool].wall_time if tool in self.results else float("nan")


@dataclass
class CoverMeTool:
    """Adapter presenting CoverMe through the common tool interface."""

    config: CoverMeConfig
    name: str = "CoverMe"
    last_evaluations: int = 0

    def generate(self, program: InstrumentedProgram, budget: Budget):
        config = self.config
        if budget.max_seconds is not None:
            config = dataclasses.replace(config, time_budget=budget.max_seconds)
        result = CoverMe(program, config).run()
        self.last_evaluations = result.evaluations
        return result.inputs


def coverme_tool(profile: Profile) -> CoverMeTool:
    return CoverMeTool(config=profile.coverme_config())


def instrument_case(case: BenchmarkCase) -> InstrumentedProgram:
    """Instrument a benchmark case with a signature describing its input box.

    The case's ``extras`` (helper callees such as ``ieee754_sqrt`` under
    ``pow``) are instrumented into the same program with offset labels, so
    branch totals follow the paper's Gcov accounting of Table 2.  The
    sampling box comes from the case's declared input domain
    (:meth:`BenchmarkCase.domain`), which defaults to the historical
    ``+-1e6`` signature box.
    """
    low, high = case.domain()
    signature = ProgramSignature(name=case.function, arity=case.arity, low=low, high=high)
    return instrument(case.entry, extra_functions=case.extras, signature=signature)


def compare_tools(
    tool_factories: dict[str, Callable[[Profile], object]],
    profile: Profile,
    cases: Optional[Iterable[BenchmarkCase]] = None,
    measure_lines: bool = False,
    n_workers: int = 1,
    worker_mode: str = "thread",
    store=None,
    resume: bool = True,
) -> list[ComparisonRow]:
    """Run every tool on every benchmark case and collect per-row results.

    Jobs go through one shared :class:`~repro.service.CoverageService`:
    every case's CoverMe job is submitted up front, baselines follow as
    their budgets resolve, and rows come back in case order regardless of
    worker count.  The default ``"thread"`` mode keeps every factory usable
    (including closures); ``worker_mode="process"`` executes in a
    persistent worker-process pool -- including into persistent stores,
    since workers return payloads and the coordinating process writes them
    -- and requires picklable ``tool_factories`` (module-level functions,
    not lambdas).

    Passing a :class:`~repro.store.RunStore` makes the run resumable:
    completed (case, tool) jobs are loaded from the store and new ones are
    checkpointed as they finish.
    """
    from repro.experiments.pipeline import (
        _execute_cases,
        select_cases,
        service_worker_mode,
        tool_items_for,
    )
    from repro.service import CoverageService

    selected = select_cases(profile, cases)
    tool_items = tool_items_for(tool_factories, measure_lines)
    service = CoverageService(
        store=store,
        worker_mode=service_worker_mode(worker_mode, n_workers),
        n_workers=n_workers,
        resume=resume,
    )
    try:
        outcomes = _execute_cases(
            selected, {case.key: tool_items for case in selected}, profile, service, resume
        )
    finally:
        service.close(close_store=False)
    return [outcome.row for outcome in outcomes]


def mean(values: Sequence[float]) -> float:
    values = [v for v in values if v == v]  # drop NaN
    return sum(values) / len(values) if values else float("nan")


def format_table(
    rows: list[ComparisonRow],
    tools: Sequence[str],
    paper_column: Optional[Callable[[BenchmarkCase], float]] = None,
    title: str = "",
) -> str:
    """Render rows as a fixed-width text table (one line per benchmark)."""
    lines = []
    if title:
        lines.append(title)
    header = f"{'File':<16s}{'Function':<34s}{'#Br':>5s}" + "".join(
        f"{tool + ' %':>12s}" for tool in tools
    )
    if paper_column is not None:
        header += f"{'Paper %':>12s}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        line = f"{row.case.file:<16s}{row.case.function:<34s}{row.n_branches:>5d}"
        for tool in tools:
            line += f"{row.coverage(tool):>12.1f}"
        if paper_column is not None:
            line += f"{paper_column(row.case):>12.1f}"
        lines.append(line)
    lines.append("-" * len(header))
    means = f"{'MEAN':<16s}{'':<34s}{'':>5s}"
    for tool in tools:
        means += f"{mean([row.coverage(tool) for row in rows]):>12.1f}"
    if paper_column is not None:
        means += f"{mean([paper_column(row.case) for row in rows]):>12.1f}"
    lines.append(means)
    return "\n".join(lines)
