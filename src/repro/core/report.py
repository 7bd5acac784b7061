"""Result records produced by the CoverMe driver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.instrument.runtime import BranchId


@dataclass
class MinimizationTrace:
    """Outcome of one basin-hopping launch (one iteration of Algorithm 1's loop)."""

    start: tuple[float, ...]
    minimum_point: tuple[float, ...]
    minimum_value: float
    accepted: bool
    newly_covered: frozenset[BranchId] = frozenset()
    marked_infeasible: Optional[BranchId] = None
    evaluations: int = 0


@dataclass
class CoverMeResult:
    """Everything Algorithm 1 produced for one program under test."""

    program: str
    inputs: list[tuple[float, ...]]
    n_branches: int
    covered: frozenset[BranchId]
    saturated: frozenset[BranchId]
    infeasible: frozenset[BranchId]
    evaluations: int
    wall_time: float
    n_starts_used: int
    traces: list[MinimizationTrace] = field(default_factory=list)

    @property
    def covered_branches(self) -> int:
        return len(self.covered)

    @property
    def branch_coverage(self) -> float:
        """Covered fraction of branches in ``[0, 1]``."""
        if self.n_branches == 0:
            return 1.0
        return len(self.covered) / self.n_branches

    @property
    def branch_coverage_percent(self) -> float:
        return 100.0 * self.branch_coverage

    @property
    def fully_covered(self) -> bool:
        return len(self.covered) >= self.n_branches

    def coverage_report(self) -> "CoverageReport":
        return CoverageReport(
            name=self.program,
            n_branches=self.n_branches,
            covered_branches=len(self.covered),
        )


@dataclass
class CoverageReport:
    """Branch (and optionally line) coverage summary in Gcov-like percentages."""

    name: str
    n_branches: int
    covered_branches: int
    n_lines: int = 0
    covered_lines: int = 0

    @property
    def branch_percent(self) -> float:
        if self.n_branches == 0:
            return 100.0
        return 100.0 * self.covered_branches / self.n_branches

    @property
    def line_percent(self) -> float:
        if self.n_lines == 0:
            return 100.0
        return 100.0 * self.covered_lines / self.n_lines


@dataclass
class ToolRunSummary:
    """Aggregate statistics of one testing-tool run on one program.

    Shared by CoverMe and the baseline tools so the experiment harnesses can
    tabulate them uniformly (Tables 2, 3 and 5).

    Zero-denominator convention: a program with no branches (or a run that
    measured no lines) is *vacuously* fully covered, so both percentage
    properties return 100.0 when their denominator is zero -- the same
    convention as :class:`CoverageReport` and
    :attr:`CoverMeResult.branch_coverage`.  Callers that want "lines were
    never measured" as a distinct state must test ``n_lines == 0``
    themselves (as the Table 5 renderer does).
    """

    tool: str
    program: str
    n_branches: int
    covered_branches: int
    wall_time: float
    executions: int
    inputs: list[tuple[float, ...]] = field(default_factory=list)
    n_lines: int = 0
    covered_lines: int = 0

    @property
    def branch_coverage_percent(self) -> float:
        if self.n_branches == 0:
            return 100.0
        return 100.0 * self.covered_branches / self.n_branches

    @property
    def line_coverage_percent(self) -> float:
        if self.n_lines == 0:
            return 100.0
        return 100.0 * self.covered_lines / self.n_lines
