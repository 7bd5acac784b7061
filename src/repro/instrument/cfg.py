"""Descendant-branch analysis (Def. 3.2 support).

Saturation (Def. 3.2) needs to know, for every branch ``b``, the set of
*descendant branches*: branches reachable from ``b`` by control flow.  This
module computes a conservative static over-approximation directly on the
Python AST of the program under test:

* branches nested inside the taken arm of a conditional are descendants of
  that arm;
* conditionals appearing after a statement are descendants of both arms,
  unless the arm always terminates abruptly (``return``/``raise``/``break``/
  ``continue``), in which case nothing that follows is reachable from it;
* a ``while`` loop's body branches (and the loop test itself) are descendants
  of the loop's true branch.

Over-approximating descendants is safe for the algorithm: it can only delay
the moment a branch is declared saturated, never declare saturation too
early, so condition C2 of the representing function is preserved.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.instrument.ast_pass import iter_child_blocks
from repro.instrument.runtime import BranchId


@dataclass
class DescendantAnalysis:
    """Maps every branch to the conditionals reachable after taking it."""

    reachable: dict[BranchId, frozenset[int]] = field(default_factory=dict)
    #: ``descendant_branches`` of every analysed branch, built once.
    branches: dict[BranchId, frozenset[BranchId]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._index_branches()

    @classmethod
    def from_function(
        cls, func_node: ast.FunctionDef, labels: dict[int, int]
    ) -> "DescendantAnalysis":
        """Run the analysis on a (possibly already instrumented) function AST."""
        analysis = cls()
        analysis._labels = labels  # type: ignore[attr-defined]
        analysis._walk_block(func_node.body, frozenset())
        # Ensure every labeled conditional has entries even if unreachable.
        for label in labels.values():
            analysis.reachable.setdefault(BranchId(label, True), frozenset())
            analysis.reachable.setdefault(BranchId(label, False), frozenset())
        analysis._index_branches()
        return analysis

    def merge(self, other: "DescendantAnalysis") -> None:
        """Merge another function's analysis (used for multi-function programs)."""
        self.reachable.update(other.reachable)
        self.branches.update(other.branches)

    def descendant_conditionals(self, branch: BranchId) -> frozenset[int]:
        """Conditional labels reachable by control flow after taking ``branch``."""
        return self.reachable.get(branch, frozenset())

    def descendant_branches(self, branch: BranchId) -> frozenset[BranchId]:
        """Descendant branches of ``branch`` in the sense of Def. 3.2."""
        return self.branches.get(branch, frozenset())

    def _index_branches(self) -> None:
        # Rebuild each label set in sorted order, so its iteration order
        # does not depend on how it was computed or deserialized.
        self.reachable = {
            branch: frozenset(sorted(labels)) for branch, labels in self.reachable.items()
        }
        # One BranchId pair per label, shared by every set that holds it.
        pairs = {
            label: (BranchId(label, True), BranchId(label, False))
            for labels in self.reachable.values()
            for label in labels
        }
        self.branches = {
            branch: frozenset(b for label in labels for b in pairs[label])
            for branch, labels in self.reachable.items()
        }

    # -- recursive walk ----------------------------------------------------------

    def _label_of(self, stmt: ast.stmt) -> int | None:
        return self._labels.get(id(stmt))  # type: ignore[attr-defined]

    def _contains(self, stmts: list[ast.stmt]) -> frozenset[int]:
        """All conditional labels syntactically contained in a block.

        Uses the same :func:`~repro.instrument.ast_pass.iter_child_blocks`
        helper as :func:`~repro.instrument.ast_pass.collect_conditionals`, so
        every statement form the labeler descends into (including ``try*``
        handlers and ``match`` cases) is also seen here.
        """
        found: set[int] = set()

        def visit(block: list[ast.stmt]) -> None:
            for stmt in block:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                label = self._label_of(stmt)
                if label is not None:
                    found.add(label)
                for child in iter_child_blocks(stmt):
                    visit(child)

        visit(stmts)
        return frozenset(found)

    def _terminates(self, stmts: list[ast.stmt]) -> bool:
        """Whether a block always exits abruptly (conservative)."""
        for stmt in stmts:
            if isinstance(stmt, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
                return True
            if isinstance(stmt, ast.If):
                if (
                    stmt.orelse
                    and self._terminates(stmt.body)
                    and self._terminates(stmt.orelse)
                ):
                    return True
        return False

    def _walk_block(self, stmts: list[ast.stmt], continuation: frozenset[int]) -> None:
        for index, stmt in enumerate(stmts):
            suffix = stmts[index + 1 :]
            following = self._contains(suffix)
            if not self._terminates(suffix):
                following = following | continuation
            self._visit_stmt(stmt, following)

    def _visit_stmt(self, stmt: ast.stmt, following: frozenset[int]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.If):
            label = self._label_of(stmt)
            body_labels = self._contains(stmt.body)
            else_labels = self._contains(stmt.orelse)
            if label is not None:
                true_reach = body_labels | (frozenset() if self._terminates(stmt.body) else following)
                false_reach = else_labels | (
                    frozenset() if stmt.orelse and self._terminates(stmt.orelse) else following
                )
                self.reachable[BranchId(label, True)] = true_reach
                self.reachable[BranchId(label, False)] = false_reach
            self._walk_block(stmt.body, following)
            self._walk_block(stmt.orelse, following)
        elif isinstance(stmt, ast.While):
            label = self._label_of(stmt)
            body_labels = self._contains(stmt.body)
            loop_reach = body_labels | following
            if label is not None:
                loop_reach = loop_reach | {label}
                self.reachable[BranchId(label, True)] = loop_reach
                self.reachable[BranchId(label, False)] = following
            self._walk_block(stmt.body, loop_reach)
            self._walk_block(stmt.orelse, following)
        elif isinstance(stmt, ast.For):
            body_labels = self._contains(stmt.body)
            self._walk_block(stmt.body, body_labels | following)
            self._walk_block(stmt.orelse, following)
        else:
            # Every other block-bearing statement (with, try/try* including
            # handlers, match cases, async variants) walks its child blocks
            # with the same continuation: each block may or may not run, and
            # conditionals after the statement stay reachable -- a safe
            # over-approximation for Def. 3.2.
            for block in iter_child_blocks(stmt):
                self._walk_block(block, following)
