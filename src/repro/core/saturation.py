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

All three sets are held as flat bit masks (bit ``2 * c + outcome``, see
:func:`~repro.instrument.runtime.branch_bit`), the form the penalty tiers
and the native coverage harvest use; the ``BranchId`` sets are views
decoded when read.
"""

from __future__ import annotations

import weakref
from typing import Iterable

from repro.instrument.program import InstrumentedProgram
from repro.instrument.runtime import (
    BranchId,
    ExecutionRecord,
    branch_mask,
    branches_from_mask,
)

#: ``id(program) -> (weak program ref, descendant-branch dict, masks)``: a
#: program is a mutable dataclass, so it cannot key a weak dictionary.  An
#: entry is dropped when its program is collected.
_PROGRAM_MASKS: dict[int, tuple] = {}


def _program_masks(program: InstrumentedProgram) -> tuple[tuple[int, ...], int]:
    """``(descendant mask of each branch bit, mask of every branch)``, built
    once per program from its descendant analysis."""
    branches = program.descendants.branches
    key = id(program)
    entry = _PROGRAM_MASKS.get(key)
    if entry is not None and entry[0]() is program and entry[1] is branches:
        return entry[2]
    descendants = [0] * (2 * max((b.conditional for b in branches), default=-1) + 2)
    for branch, below in branches.items():
        descendants[branch.bit] = branch_mask(below)
    masks = (tuple(descendants), branch_mask(program.all_branches))
    ref = weakref.ref(program, lambda _, key=key: _PROGRAM_MASKS.pop(key, None))
    _PROGRAM_MASKS[key] = (ref, branches, masks)
    return masks


class SaturationTracker:
    """Tracks covered, saturated and deemed-infeasible branches of a program.

    ``covered`` and ``infeasible`` seed the state from ``BranchId`` sets;
    :meth:`from_masks` seeds it from bit masks.
    """

    __slots__ = ("program", "_descendants", "_all", "_covered", "_infeasible",
                 "_saturated", "_views")

    def __init__(
        self,
        program: InstrumentedProgram,
        covered: Iterable[BranchId] = (),
        infeasible: Iterable[BranchId] = (),
    ):
        self._init(program, branch_mask(covered), branch_mask(infeasible))

    @classmethod
    def from_masks(
        cls, program: InstrumentedProgram, covered: int, infeasible: int
    ) -> "SaturationTracker":
        """A tracker whose covered and infeasible branches are bit masks."""
        tracker = cls.__new__(cls)
        tracker._init(program, covered, infeasible)
        return tracker

    def _init(self, program: InstrumentedProgram, covered: int, infeasible: int) -> None:
        self.program = program
        self._descendants, self._all = _program_masks(program)
        self._covered = covered
        self._infeasible = infeasible
        self._recompute()

    # -- updates -----------------------------------------------------------------

    def add_execution(self, record: ExecutionRecord) -> set[BranchId]:
        """Record the branches covered by one accepted test input.

        Returns the set of newly covered branches.
        """
        return set(self.branches(self.add_covered_mask(branch_mask(record.covered))))

    def add_covered(self, branches: Iterable[BranchId]) -> set[BranchId]:
        """Mark branches as covered directly (used by replaying stored inputs)."""
        return set(self.branches(self.add_covered_mask(branch_mask(branches))))

    def add_covered_mask(self, mask: int) -> int:
        """Mark the branches of a bit mask as covered; returns the newly
        covered ones as a mask."""
        new = mask & ~self._covered
        if new:
            self._covered |= new
            self._recompute()
        return new

    def mark_infeasible(self, branch: BranchId) -> None:
        """Apply the infeasible-branch heuristic: treat ``branch`` as saturated."""
        bit = 1 << branch.bit
        if not self._infeasible & bit:
            self._infeasible |= bit
            self._recompute()

    # -- queries -----------------------------------------------------------------

    @property
    def covered(self) -> frozenset[BranchId]:
        """Branches covered by an accepted input (infeasible marks excluded)."""
        return self._view("covered", self._covered)

    @property
    def infeasible(self) -> frozenset[BranchId]:
        """Branches deemed infeasible by the heuristic of Sect. 5.3."""
        return self._view("infeasible", self._infeasible)

    @property
    def saturated(self) -> frozenset[BranchId]:
        """The set ``Saturate`` used by the penalty function."""
        return self._view("saturated", self._saturated)

    @property
    def covered_mask(self) -> int:
        return self._covered

    @property
    def infeasible_mask(self) -> int:
        return self._infeasible

    @property
    def saturated_mask(self) -> int:
        """``Saturate`` as a flat bitmask, recomputed when the tracker's
        state changes, never per evaluation.

        This is what the compiled tiers' inlined penalty consumes
        (:class:`~repro.instrument.runtime.FastRuntime`, the specialized
        variant and the native kernel).
        """
        return self._saturated

    def all_saturated(self) -> bool:
        """True when every branch of the program is saturated (Lemma 3.3)."""
        return self._saturated.bit_count() >= self.program.n_branches

    def all_covered(self) -> bool:
        return self._covered & self._all == self._all

    @property
    def n_branches(self) -> int:
        return self.program.n_branches

    @property
    def n_covered(self) -> int:
        return (self._covered & self._all).bit_count()

    def branch_coverage(self) -> float:
        """Fraction of branches genuinely covered (infeasible marks excluded)."""
        if self.program.n_branches == 0:
            return 1.0
        return self.n_covered / self.program.n_branches

    def uncovered(self) -> frozenset[BranchId]:
        return self.branches(self._all & ~self._covered)

    def branches(self, mask: int) -> frozenset[BranchId]:
        """The branches of a bit mask of this program."""
        if mask >> (2 * self.program.n_conditionals):
            return branches_from_mask(mask)
        return self.program.branches_of(mask)

    # -- internals ---------------------------------------------------------------

    def _view(self, name: str, mask: int) -> frozenset[BranchId]:
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = self.branches(mask)
        return view

    def _recompute(self) -> None:
        """Recompute the saturation mask from covered and infeasible branches.

        A branch is saturated when it is covered (or deemed infeasible) and
        all its descendant branches are covered or deemed infeasible.
        Branches deemed infeasible are saturated outright, matching how
        CoverMe adds them to ``Saturate`` (Sect. 5.3).  A branch outside the
        descendant analysis has no descendants.
        """
        effective = self._covered | self._infeasible
        missing = ~effective
        descendants = self._descendants
        n_bits = len(descendants)
        saturated = self._infeasible
        rest = effective & ~saturated
        while rest:
            low = rest & -rest
            bit = low.bit_length() - 1
            if bit >= n_bits or not descendants[bit] & missing:
                saturated |= low
            rest ^= low
        self._saturated = saturated
        self._views = {}
