"""Saturation tracking (Def. 3.2 and Lemma 3.3).

A branch is *saturated* by a set of test inputs ``X`` when the branch itself
and every descendant branch is covered by ``X``.  By Lemma 3.3, saturating
every branch is equivalent to covering every branch, which is why CoverMe can
drive its search entirely with the saturation set: the penalty function
(Def. 4.2) only pulls towards branches that are not yet saturated, so every
zero of the representing function makes progress.

The tracker also records branches *deemed infeasible* by the heuristic of
Sect. 5.3: those are treated as saturated (they stop attracting the search)
but are never counted as covered in the reported coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.instrument.program import InstrumentedProgram
from repro.instrument.runtime import BranchId, ExecutionRecord, branch_mask


@dataclass
class SaturationTracker:
    """Tracks covered, saturated and deemed-infeasible branches of a program."""

    program: InstrumentedProgram
    covered: set[BranchId] = field(default_factory=set)
    infeasible: set[BranchId] = field(default_factory=set)
    _saturated: frozenset[BranchId] = field(default_factory=frozenset)
    _saturated_mask: int = 0

    def __post_init__(self) -> None:
        self._recompute()

    # -- updates -----------------------------------------------------------------

    def add_execution(self, record: ExecutionRecord) -> set[BranchId]:
        """Record the branches covered by one accepted test input.

        Returns the set of newly covered branches.
        """
        new = record.covered - self.covered
        if new:
            self.covered |= new
            self._recompute()
        return new

    def add_covered(self, branches: set[BranchId]) -> set[BranchId]:
        """Mark branches as covered directly (used by replaying stored inputs)."""
        new = branches - self.covered
        if new:
            self.covered |= new
            self._recompute()
        return new

    def mark_infeasible(self, branch: BranchId) -> None:
        """Apply the infeasible-branch heuristic: treat ``branch`` as saturated."""
        if branch not in self.infeasible:
            self.infeasible.add(branch)
            self._recompute()

    # -- queries -----------------------------------------------------------------

    @property
    def saturated(self) -> frozenset[BranchId]:
        """The set ``Saturate`` used by the penalty function."""
        return self._saturated

    @property
    def saturated_mask(self) -> int:
        """``Saturate`` as a flat bitmask, maintained incrementally.

        This is what the allocation-free runtime's inlined penalty consumes
        (:class:`~repro.instrument.runtime.FastRuntime`); it is recomputed
        only when the tracker's state changes, never per evaluation.
        """
        return self._saturated_mask

    def is_saturated(self, branch: BranchId) -> bool:
        return branch in self._saturated

    def all_saturated(self) -> bool:
        """True when every branch of the program is saturated (Lemma 3.3)."""
        return len(self._saturated) >= self.program.n_branches

    def all_covered(self) -> bool:
        return self.covered >= self.program.all_branches

    @property
    def n_branches(self) -> int:
        return self.program.n_branches

    @property
    def n_covered(self) -> int:
        return len(self.covered & self.program.all_branches)

    def branch_coverage(self) -> float:
        """Fraction of branches genuinely covered (infeasible marks excluded)."""
        if self.program.n_branches == 0:
            return 1.0
        return self.n_covered / self.program.n_branches

    def uncovered(self) -> frozenset[BranchId]:
        return frozenset(self.program.all_branches - self.covered)

    # -- internals ---------------------------------------------------------------

    def _recompute(self) -> None:
        """Recompute the saturation set from covered and infeasible branches.

        A branch is saturated when it is covered (or deemed infeasible) and
        all its descendant branches are covered or deemed infeasible.
        Branches deemed infeasible are saturated outright, matching how
        CoverMe adds them to ``Saturate`` (Sect. 5.3).
        """
        effective = self.covered | self.infeasible
        saturated: set[BranchId] = set(self.infeasible)
        for branch in effective:
            descendants = self.program.descendant_branches(branch)
            if descendants <= effective:
                saturated.add(branch)
        self._saturated = frozenset(saturated)
        self._saturated_mask = branch_mask(saturated)
