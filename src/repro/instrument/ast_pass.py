"""The AST instrumentation pass (analogue of the paper's LLVM pass).

For every conditional statement ``l_i`` (``if`` or ``while``) of the program
under test, the pass rewrites the test expression so that it is evaluated
through the installed :class:`~repro.instrument.runtime.Runtime`:

``if a <= b:``  becomes  ``if rt.test(i, "<=", a, b):``

The fused ``rt.test`` probe computes the branch distance of Def. 4.1,
applies the ``pen`` update of Def. 4.2 to the injected register ``r``,
records coverage and returns the Boolean outcome, so the control flow of the
program is unchanged.  This is exactly the effect of the paper's injected
``r = pen(l_i, op, a, b)`` assignment placed before ``l_i``, paid for with a
single probe call on the hot path.

Beyond single comparisons, the pass lowers the *complete* conditional
language of Sect. 5.3 into leaf probes plus a constant postfix *composition
program* resolved by ``rt.resolve`` (see the runtime module docstring for
the token encoding):

* **Boolean trees** -- arbitrarily nested ``and``/``or`` combinations
  (``a < b or (c < d and e < f)``): every comparison becomes an indexed
  ``rt.cmp`` leaf, non-comparison operands (``_isnan(x) or flag``) become
  ``rt.tleaf`` leaves whose value is promoted to a ``!= 0`` distance;
* **negation** -- ``not`` over a tree is pushed to the leaves by De Morgan
  (comparison operators flip, ``and``/``or`` swap, truthiness leaves carry a
  negation flag), so no distance information is lost;
* **chained comparisons** -- ``a < b < c`` becomes the conjunction
  ``a < b and b < c`` with walrus temporaries so every operand is evaluated
  exactly once and short-circuiting matches Python's chain semantics;
* **ternary tests** -- ``a if c else b`` keeps its conditional-expression
  shape and composes as ``(c and a) or (not c and b)``, re-using the
  condition's leaf distances for both sides.

Tests that none of the above covers -- a bare name, call or arithmetic
expression such as ``if m & 1:`` -- use the fused :meth:`Runtime.truth`
probe, which promotes numeric values to the comparison ``value != 0`` per
Sect. 5.3 (form ``"promoted"``).  Only tests the lowering *declines* (trees
beyond :data:`MAX_TREE_LEAVES`/:data:`MAX_TREE_TOKENS`, or unexpected
expression shapes) degrade to the distance-blind ``truth`` fallback, and
those are observable through ``ConditionalInfo.form == "truth"`` /
``InstrumentedProgram.fallback_conditionals``.
"""

from __future__ import annotations

import ast
import textwrap
import threading
from dataclasses import dataclass
from types import CodeType
from typing import Iterator

from repro.instrument.runtime import TREE_NOT, tree_and, tree_or

#: Name under which the runtime handle is made visible to instrumented code.
HANDLE_NAME = "__coverme_rt__"

#: Prefix of the single-evaluation temporaries injected for chained
#: comparisons; the suffix counter is unique within one instrumented function.
TEMP_NAME_PREFIX = "__coverme_tmp"

#: Ceilings above which a Boolean tree degrades to the ``truth`` fallback
#: instead of a composition program (keeps probe programs and the runtimes'
#: composition stacks small; real code never comes close).
MAX_TREE_LEAVES = 64
MAX_TREE_TOKENS = 512

#: CPython 3.11 keeps the recursion counter of its conversion between AST
#: objects and the compiler's tree in interpreter-wide state, so a thread
#: switch inside ``ast.parse`` or ``compile(tree)`` while another thread
#: converts corrupts it ("SystemError: AST constructor recursion depth
#: mismatch").  Every conversion of the instrumenter and its compiled tiers
#: goes through :func:`parse` and :func:`compile_tree`, which hold this lock.
_AST_LOCK = threading.Lock()


def parse(source: str) -> ast.Module:
    """``ast.parse(source)``, serialized with every other AST conversion."""
    with _AST_LOCK:
        return ast.parse(source)


def compile_tree(tree: ast.Module, filename: str) -> CodeType:
    """``compile(tree, filename, "exec")``, serialized like :func:`parse`."""
    with _AST_LOCK:
        return compile(tree, filename, "exec")

_AST_OPS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
}

_NEGATED = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

_SKIPPED_STATEMENTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

_TRY_STATEMENTS = (ast.Try, ast.TryStar) if hasattr(ast, "TryStar") else (ast.Try,)

#: The conditional forms the pass emits, in the order of the README table.
CONDITIONAL_FORMS = (
    "simple",      # one comparison -> fused rt.test probe
    "negated",     # ``not`` over one comparison -> fused probe, operator flipped
    "boolean",     # (nested) and/or tree -> leaf probes + composition program
    "chained",     # a < b < c -> conjunction with single-evaluation temporaries
    "ternary",     # a if c else b -> (c and a) or (not c and b) composition
    "promoted",    # bare non-comparison test -> rt.truth, value promoted != 0
    "truth",       # fallback: coverage only unless numeric at run time
)


class _LoweringOverflow(Exception):
    """Raised when a Boolean tree exceeds the leaf/token ceilings."""


def strip_not(test: ast.expr) -> tuple[ast.expr, bool]:
    """Peel ``not`` wrappers off a test, returning the core and the parity.

    Shared by the instrumentation pass and the saturation specializer
    (:mod:`repro.instrument.specialize`) so both classify a conditional's
    shape identically.
    """
    negated = False
    while isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        negated = not negated
        test = test.operand
    return test, negated


def is_chain(test: ast.expr) -> bool:
    """Whether ``test`` is a chained comparison over supported operators."""
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) > 1
        and all(type(op) in _AST_OPS for op in test.ops)
    )


def as_simple_comparison(test: ast.expr):
    """Return ``(op, lhs, rhs, negated)`` if ``test`` is one comparison.

    ``op`` already folds an odd number of ``not`` wrappers (the operator is
    flipped), exactly as the fused ``rt.test`` probe is emitted.
    """
    test, negated = strip_not(test)
    if isinstance(test, ast.Compare) and len(test.ops) == 1 and len(test.comparators) == 1:
        op_type = type(test.ops[0])
        if op_type in _AST_OPS:
            op = _AST_OPS[op_type]
            if negated:
                op = _NEGATED[op]
            return op, test.left, test.comparators[0], negated
    return None


@dataclass(frozen=True)
class ConditionalInfo:
    """Static description of one labeled conditional statement."""

    label: int
    kind: str  # "if" or "while"
    lineno: int
    source: str
    form: str = "simple"  # one of CONDITIONAL_FORMS


def iter_child_blocks(stmt: ast.stmt) -> Iterator[list[ast.stmt]]:
    """Yield the statement blocks nested directly inside ``stmt``, in source order.

    This is the single definition of "where can statements hide" shared by
    :func:`collect_conditionals` and the descendant analysis in
    :mod:`repro.instrument.cfg`, so the two walkers cannot drift apart:
    ``try``/``except``/``except*`` handler bodies, ``match`` case bodies,
    ``else``/``finally`` blocks and plain bodies all come from here.
    """
    if isinstance(stmt, _TRY_STATEMENTS):
        yield stmt.body
        for handler in stmt.handlers:
            yield handler.body
        yield stmt.orelse
        yield stmt.finalbody
        return
    if isinstance(stmt, ast.Match):
        for case in stmt.cases:
            yield case.body
        return
    body = getattr(stmt, "body", None)
    if isinstance(body, list):
        yield body
    orelse = getattr(stmt, "orelse", None)
    if isinstance(orelse, list) and orelse:
        yield orelse


def collect_conditionals(node: ast.AST) -> list[ast.stmt]:
    """Return the ``if``/``while`` statements of ``node`` in source order.

    Every statement form with nested blocks (loops, ``with``, ``try`` and
    ``try*`` handlers, ``match`` cases) is descended through via
    :func:`iter_child_blocks`.  Nested function and class definitions are not
    descended into: CoverMe instruments one entry function at a time
    (Sect. 5.3).
    """
    found: list[ast.stmt] = []

    def visit_block(stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, _SKIPPED_STATEMENTS):
                continue
            if isinstance(stmt, (ast.If, ast.While)):
                found.append(stmt)
            for block in iter_child_blocks(stmt):
                visit_block(block)

    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
        visit_block(node.body)
    else:
        raise TypeError(f"expected a function or module node, got {type(node).__name__}")
    return found


def assign_labels(
    node: ast.AST, start: int = 0
) -> tuple[dict[int, int], list[ast.stmt]]:
    """Assign consecutive labels to the conditionals of ``node``.

    Returns a mapping from ``id(stmt)`` to label, plus the ordered statements.
    """
    stmts = collect_conditionals(node)
    labels = {id(stmt): start + index for index, stmt in enumerate(stmts)}
    return labels, stmts


class InstrumentationPass(ast.NodeTransformer):
    """Rewrites conditional tests into runtime probe calls."""

    def __init__(self, labels: dict[int, int], handle_name: str = HANDLE_NAME):
        self.labels = labels
        self.handle_name = handle_name
        self.conditionals: list[ConditionalInfo] = []
        self._temp_counter = 0

    # -- statement visitors ----------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.AST:
        # Only the outermost function is transformed; nested defs are left as-is.
        node.body = [self.visit(stmt) for stmt in node.body]
        return node

    def visit_If(self, node: ast.If) -> ast.AST:
        self.generic_visit(node)
        return self._instrument_test(node, "if")

    def visit_While(self, node: ast.While) -> ast.AST:
        self.generic_visit(node)
        return self._instrument_test(node, "while")

    def visit_Lambda(self, node: ast.Lambda) -> ast.AST:
        return node

    def visit_ClassDef(self, node: ast.ClassDef) -> ast.AST:
        return node

    # -- helpers ----------------------------------------------------------------

    def _instrument_test(self, node, kind: str):
        label = self.labels.get(id(node))
        if label is None:
            return node
        try:
            source = ast.unparse(node.test)
        except Exception:  # pragma: no cover - unparse is best-effort metadata
            source = "<unprintable>"
        new_test, form = self._rewrite_test(label, node.test)
        self.conditionals.append(
            ConditionalInfo(
                label=label,
                kind=kind,
                lineno=getattr(node, "lineno", 0),
                source=source,
                form=form,
            )
        )
        node.test = new_test
        return node

    def _rewrite_test(self, label: int, test: ast.expr) -> tuple[ast.expr, str]:
        simple = as_simple_comparison(test)
        if simple is not None:
            # Single comparison: one fused probe call (the hot path).
            op, lhs, rhs, negated = simple
            call = self._call("test", [ast.Constant(label), ast.Constant(op), lhs, rhs])
            return call, ("negated" if negated else "simple")
        stripped, _ = strip_not(test)
        if isinstance(stripped, (ast.BoolOp, ast.IfExp)) or is_chain(stripped):
            try:
                lowering = _TreeLowering(self, label)
                expr, tokens = lowering.lower(test, negated=False)
                if len(tokens) > MAX_TREE_TOKENS:
                    raise _LoweringOverflow()
            except _LoweringOverflow:
                return self._call("truth", [ast.Constant(label), test]), "truth"
            program = ast.Tuple(
                elts=[ast.Constant(token) for token in tokens], ctx=ast.Load()
            )
            call = self._call("resolve", [ast.Constant(label), program, expr])
            if isinstance(stripped, ast.IfExp):
                form = "ternary"
            elif isinstance(stripped, ast.BoolOp):
                form = "boolean"
            else:
                form = "chained"
            return call, form
        # Bare non-comparison test: the fused truth probe promotes numeric
        # values to a ``!= 0`` distance at run time (Sect. 5.3).
        return self._call("truth", [ast.Constant(label), test]), "promoted"

    def _temp_name(self) -> str:
        name = f"{TEMP_NAME_PREFIX}{self._temp_counter}"
        self._temp_counter += 1
        return name

    def _call(self, method: str, args: list[ast.expr]) -> ast.Call:
        return ast.Call(
            func=ast.Attribute(
                value=ast.Name(id=self.handle_name, ctx=ast.Load()),
                attr=method,
                ctx=ast.Load(),
            ),
            args=args,
            keywords=[],
        )


class _TreeLowering:
    """Lowers one conditional's Boolean tree into probes + a postfix program.

    Every comparison becomes an indexed ``cmp`` leaf and every other operand
    a promoted ``tleaf`` leaf; the returned token program composes the leaf
    distances back into the conditional's ``(d_true, d_false)`` pair at run
    time.  ``not`` is propagated down by De Morgan, so the emitted tree only
    needs ``and``/``or`` nodes (the :data:`~repro.instrument.runtime.TREE_NOT`
    token appears only in the ternary composition, where the condition
    subtree is shared by both sides).
    """

    def __init__(self, owner: InstrumentationPass, label: int):
        self.owner = owner
        self.label = label
        self.n_leaves = 0

    def _checked(self, tokens: list[int]) -> list[int]:
        """Enforce the token ceiling while lowering, not just at the end.

        The ternary composition re-emits its condition's tokens, so programs
        can double per nesting level while the leaf count grows only
        linearly; checking every composite node keeps list construction
        bounded by one overshoot of :data:`MAX_TREE_TOKENS` instead of
        exponential.
        """
        if len(tokens) > MAX_TREE_TOKENS:
            raise _LoweringOverflow()
        return tokens

    def lower(self, node: ast.expr, negated: bool) -> tuple[ast.expr, list[int]]:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return self.lower(node.operand, not negated)
        if isinstance(node, ast.BoolOp):
            return self._lower_boolop(node, negated)
        if isinstance(node, ast.IfExp):
            return self._lower_ternary(node, negated)
        if isinstance(node, ast.Compare) and all(type(op) in _AST_OPS for op in node.ops):
            if len(node.ops) == 1:
                return self._comparison_leaf(node, negated)
            return self._lower_chain(node, negated)
        return self._truth_leaf(node, negated)

    # -- node lowerings ----------------------------------------------------------

    def _lower_boolop(self, node: ast.BoolOp, negated: bool) -> tuple[ast.expr, list[int]]:
        is_and = isinstance(node.op, ast.And)
        if negated:  # De Morgan: the children carry the negation
            is_and = not is_and
        exprs: list[ast.expr] = []
        tokens: list[int] = []
        for value in node.values:
            expr, sub_tokens = self.lower(value, negated)
            exprs.append(expr)
            tokens.extend(sub_tokens)
        tokens.append(tree_and(len(exprs)) if is_and else tree_or(len(exprs)))
        boolop = ast.BoolOp(op=ast.And() if is_and else ast.Or(), values=exprs)
        return boolop, self._checked(tokens)

    def _lower_ternary(self, node: ast.IfExp, negated: bool) -> tuple[ast.expr, list[int]]:
        # ``a if c else b``  composes as  ``(c and a) or (not c and b)``; the
        # condition's leaves are evaluated once and their stashed distances
        # are referenced by both sides of the composition.
        cond_expr, cond_tokens = self.lower(node.test, False)
        body_expr, body_tokens = self.lower(node.body, negated)
        else_expr, else_tokens = self.lower(node.orelse, negated)
        tokens = (
            cond_tokens
            + body_tokens
            + [tree_and(2)]
            + cond_tokens
            + [TREE_NOT]
            + else_tokens
            + [tree_and(2), tree_or(2)]
        )
        ternary = ast.IfExp(test=cond_expr, body=body_expr, orelse=else_expr)
        return ternary, self._checked(tokens)

    def _lower_chain(self, node: ast.Compare, negated: bool) -> tuple[ast.expr, list[int]]:
        # ``a < b < c``  ->  ``a < (t := b) and t < c`` with each middle
        # operand bound to a walrus temporary, preserving Python's guarantee
        # that chain operands are evaluated at most once and that the tail is
        # short-circuited away when an earlier link fails.  Under negation
        # De Morgan turns the conjunction into a disjunction of flipped
        # links, which short-circuits at exactly the same operand.
        exprs: list[ast.expr] = []
        tokens: list[int] = []
        lhs: ast.expr = node.left
        last = len(node.ops) - 1
        for index, (op_node, comparator) in enumerate(zip(node.ops, node.comparators)):
            op = _AST_OPS[type(op_node)]
            if negated:
                op = _NEGATED[op]
            if index < last:
                name = self.owner._temp_name()
                rhs: ast.expr = ast.NamedExpr(
                    target=ast.Name(id=name, ctx=ast.Store()), value=comparator
                )
                next_lhs: ast.expr = ast.Name(id=name, ctx=ast.Load())
            else:
                rhs = comparator
                next_lhs = comparator  # unused
            leaf = self._new_leaf()
            exprs.append(
                self.owner._call(
                    "cmp",
                    [ast.Constant(self.label), ast.Constant(op), lhs, rhs, ast.Constant(leaf)],
                )
            )
            tokens.append(leaf)
            lhs = next_lhs
        boolop = ast.BoolOp(op=ast.Or() if negated else ast.And(), values=exprs)
        tokens.append(tree_or(len(exprs)) if negated else tree_and(len(exprs)))
        return boolop, tokens

    def _comparison_leaf(self, node: ast.Compare, negated: bool) -> tuple[ast.expr, list[int]]:
        op = _AST_OPS[type(node.ops[0])]
        if negated:
            op = _NEGATED[op]
        leaf = self._new_leaf()
        call = self.owner._call(
            "cmp",
            [
                ast.Constant(self.label),
                ast.Constant(op),
                node.left,
                node.comparators[0],
                ast.Constant(leaf),
            ],
        )
        return call, [leaf]

    def _truth_leaf(self, node: ast.expr, negated: bool) -> tuple[ast.expr, list[int]]:
        leaf = self._new_leaf()
        args = [ast.Constant(self.label), ast.Constant(leaf), node]
        if negated:
            args.append(ast.Constant(True))
        return self.owner._call("tleaf", args), [leaf]

    def _new_leaf(self) -> int:
        if self.n_leaves >= MAX_TREE_LEAVES:
            raise _LoweringOverflow()
        leaf = self.n_leaves
        self.n_leaves += 1
        return leaf


def instrument_source(
    source: str, function_name: str | None = None, start_label: int = 0
) -> tuple[ast.Module, list[ConditionalInfo], dict[int, int], ast.FunctionDef]:
    """Parse and instrument the source of a single function.

    Returns the transformed module AST, the conditional metadata, the label
    mapping (on the *original* statement objects, which are mutated in place
    by the transformer but keep their identity), and the function node.
    """
    tree = parse(textwrap.dedent(source))
    func_node = None
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and (
            function_name is None or stmt.name == function_name
        ):
            func_node = stmt
            break
    if func_node is None:
        raise ValueError(
            f"could not find function {function_name!r} in the provided source"
        )
    func_node.decorator_list = []
    labels, _ = assign_labels(func_node, start=start_label)
    instrumentation = InstrumentationPass(labels)
    instrumentation.visit(func_node)
    ast.fix_missing_locations(tree)
    return tree, instrumentation.conditionals, labels, func_node
