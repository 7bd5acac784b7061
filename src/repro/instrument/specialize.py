"""Saturation-specialized penalty codegen (the ``PENALTY_SPECIALIZED`` tier).

The paper's bet is that each evaluation of the representing function "is just
an execution of the instrumented program": in CoverMe the ``pen`` injection is
a *code transformation* compiled into the binary, so probes cost almost
nothing.  The generic runtimes of :mod:`repro.instrument.runtime` instead pay
a probe method call, a mask shift and a Def. 4.2 dispatch at every conditional
of every execution -- even though the saturated-branch mask changes only a
handful of times per search while the engine issues millions of evaluations
against it.

This module closes that gap: given the *original* source of an instrumented
function and a concrete ``saturated_mask``, it regenerates the instrumented
source with Def. 4.2 resolved **at compile time** per probe site:

* **both branches saturated** (case c -- keep ``r``): the probe is stripped
  entirely; the conditional compiles back to the bare branch of the original
  program, costing exactly what the uninstrumented code costs;
* **neither branch saturated** (case a -- ``r`` becomes 0): the site reduces
  to a ``__sp_r__ = 0.0`` store guarded by the same float-comparability
  degradation the runtimes apply (operands that cannot convert keep ``r``);
  **zero** distance arithmetic is emitted;
* **exactly one branch saturated** (case b -- ``r`` becomes the distance
  towards the unsaturated branch): the steering branch-distance arithmetic is
  inlined as straight-line statements -- no runtime method call, no operator
  string dispatch, and for Boolean trees no postfix program interpretation:
  the constant-shape composition of Sect. 5.3 (nested ``and``/``or``,
  De-Morganed ``not``, chained comparisons, ternary tests, promoted
  truthiness) is unrolled into short-circuit-preserving statement sequences
  that accumulate the composed distance directly.

The generated code of a concrete mask communicates through one reserved
module global, ``__sp_r__`` (the injected register ``r``): it computes ``r``
and nothing else.  Consumers that need coverage re-execute on the generic
:class:`~repro.instrument.runtime.FastRuntime`, as the engine does for
accepted minima under this tier.

With ``saturated_mask=None`` the rewrite leaves the mask to run time instead
(the *mask-generic* form): each site reads its two bits from the reserved
global ``__sp_sat__`` (indexed by label), branches to exactly the code a
concrete mask would compile it to (a Boolean-tree site keeps one copy of its
test per case), and always writes its covered bit into ``__sp_cov__`` (a
flat bytearray indexed by :func:`~repro.instrument.runtime.branch_bit`), so
its coverage is complete.  The native tier compiles this form once per
program (:mod:`repro.instrument.native.emit`) and harvests coverage from
those writes.

Bit-identical ``r``
-------------------

Every inlined fragment mirrors the corresponding :class:`FastRuntime` path
operation for operation -- same conversion order, same NaN constants, same
fused distance arithmetic with the fixed Def. 4.1 constant
:data:`~repro.core.branch_distance.DEFAULT_EPSILON`, same composition fold
ordering -- so the composed
``r`` is bit-identical to ``Runtime``/``FastRuntime`` across **all** masks
(property-tested in ``tests/test_specialize.py``).  The decision whether a
Boolean tree is lowered or degraded to the distance-blind ``truth`` fallback
re-runs the instrumentation pass's own ceiling check, so the two tiers can
never disagree about a site's shape.

Compiled specializations are cached at module level per ``(source sha256,
function name, start label, mask)`` alongside the compiled-unit
cache of :mod:`repro.instrument.program`, which also surfaces this cache's
statistics through ``compiled_cache_info()``.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import textwrap
import threading
from dataclasses import dataclass
from types import CodeType
from typing import Callable, Optional

from repro.core.branch_distance import DEFAULT_EPSILON, negate_op
from repro.instrument.ast_pass import (
    _AST_OPS,
    _NEGATED,
    MAX_TREE_TOKENS,
    InstrumentationPass,
    _LoweringOverflow,
    _TreeLowering,
    as_simple_comparison,
    assign_labels,
    compile_tree,
    is_chain,
    parse,
    strip_not,
)
from repro.instrument.runtime import BIG_DISTANCE

#: Reserved name of the injected register ``r`` in specialized namespaces.
R_NAME = "__sp_r__"

#: Reserved name of the flat covered-branch bytearray a mask-generic
#: specialization writes.
COV_NAME = "__sp_cov__"

#: Reserved name of the saturation state a mask-generic specialization reads:
#: ``__sp_sat__[label]`` is the conditional's two mask bits (0-3).
SAT_NAME = "__sp_sat__"

#: Prefix of compiler-generated temporaries (function-local).
TEMP_PREFIX = "__sp_t"

_CONVERT_ERRORS = ("TypeError", "ValueError", "OverflowError")

_OP_NODES = {
    "==": ast.Eq,
    "!=": ast.NotEq,
    "<": ast.Lt,
    "<=": ast.LtE,
    ">": ast.Gt,
    ">=": ast.GtE,
}

_INF = float("inf")


class SpecializationError(RuntimeError):
    """Raised when a source cannot be specialized (mirrors instrumentation)."""


# -- small AST builders -----------------------------------------------------------------


def _name(ident: str) -> ast.Name:
    return ast.Name(id=ident, ctx=ast.Load())


def _assign(ident: str, value: ast.expr) -> ast.Assign:
    return ast.Assign(targets=[ast.Name(id=ident, ctx=ast.Store())], value=value)


def _const(value) -> ast.Constant:
    return ast.Constant(value=value)


def _compare(left: ast.expr, op: str, right: ast.expr) -> ast.Compare:
    return ast.Compare(left=left, ops=[_OP_NODES[op]()], comparators=[right])


def _if(test: ast.expr, body: list, orelse: Optional[list] = None) -> ast.If:
    return ast.If(test=test, body=body, orelse=orelse if orelse is not None else [])


def _not(expr: ast.expr) -> ast.UnaryOp:
    return ast.UnaryOp(op=ast.Not(), operand=expr)

def _call(func: str, args: list) -> ast.Call:
    return ast.Call(func=_name(func), args=args, keywords=[])


def _is_float_class(expr: ast.expr) -> ast.expr:
    """``expr.__class__ is float`` (the runtimes' exact fast-path check)."""
    return ast.Compare(
        left=ast.Attribute(value=expr, attr="__class__", ctx=ast.Load()),
        ops=[ast.Is()],
        comparators=[_name("float")],
    )


def _convert_handler() -> ast.ExceptHandler:
    return ast.ExceptHandler(
        type=ast.Tuple(elts=[_name(n) for n in _CONVERT_ERRORS], ctx=ast.Load()),
        name=None,
        body=[ast.Pass()],
    )


def _try_convert(pairs: list[tuple[str, ast.expr]], on_success: list) -> ast.Try:
    """``try: t_i = float(e_i)... except (conv errors): pass else: <success>``."""
    body: list[ast.stmt] = [_assign(t, _call("float", [e])) for t, e in pairs]
    return ast.Try(body=body, handlers=[_convert_handler()], orelse=on_success, finalbody=[])


class _Val:
    """A re-usable operand: a bound name or a compile-time constant.

    Generated code references operands many times (outcome, NaN guard,
    distance); fresh AST nodes are minted per reference so the emitted tree
    stays a tree.
    """

    __slots__ = ("ident", "value")

    def __init__(self, ident: Optional[str] = None, value=None):
        self.ident = ident
        self.value = value

    def node(self) -> ast.expr:
        if self.ident is not None:
            return _name(self.ident)
        return _const(self.value)

    @property
    def is_const(self) -> bool:
        return self.ident is None

    def const_float(self) -> Optional[float]:
        """The operand as a compile-time float when conversion cannot fail."""
        if self.ident is not None:
            return None
        if isinstance(self.value, (bool, int, float)):
            try:
                return float(self.value)
            except OverflowError:
                return None
        return None

    @property
    def unconvertible(self) -> bool:
        """A constant whose ``float()`` conversion always fails."""
        return self.ident is None and self.const_float() is None


# -- composition-spec nodes --------------------------------------------------------------


@dataclass
class _Cmp:
    """A comparison leaf; ``pre`` holds chain-temporary bindings."""

    op: str
    lhs: ast.expr
    rhs: ast.expr
    pre: list


@dataclass
class _Truth:
    """A promoted non-comparison leaf (``rt.tleaf`` analogue)."""

    value: ast.expr
    negated: bool


@dataclass
class _Bool:
    is_and: bool
    children: list


@dataclass
class _Tern:
    cond: object
    body: object
    orelse: object


@dataclass
class _Emitted:
    """One emitted subtree: its statements plus result variable names."""

    stmts: list
    out: str
    t: Optional[str] = None
    f: Optional[str] = None
    u: Optional[str] = None


class _BareOwner:
    """A probe-less ``_TreeLowering`` owner: leaf "probes" become bare exprs.

    ``cmp`` leaves reduce to the plain comparison and ``tleaf`` leaves to the
    (possibly negated) value, so lowering a test through ``_TreeLowering``
    with this owner yields exactly the expression the instrumented program
    evaluates -- flipped operators, single-evaluation chain temporaries and
    all -- with every probe elided.
    """

    def __init__(self, specializer: "_Specializer"):
        self._specializer = specializer

    def _temp_name(self) -> str:
        return self._specializer._temp()

    def _call(self, method: str, args: list) -> ast.expr:
        if method == "cmp":
            _label, op, lhs, rhs = args[0], args[1].value, args[2], args[3]
            return _compare(lhs, op, rhs)
        if method == "tleaf":
            value = args[2]
            negated = len(args) > 3 and bool(args[3].value)
            return _not(value) if negated else value
        raise SpecializationError(f"unexpected probe method {method!r}")


class _Specializer(ast.NodeTransformer):
    """Rewrites labeled conditionals with the mask resolved per site (or,
    for ``saturated_mask=None``, dispatched per site at run time)."""

    def __init__(self, labels: dict[int, int], saturated_mask: Optional[int]):
        self.labels = labels
        self.saturated_mask = saturated_mask
        self._counter = 0
        self._wrote_r: list[bool] = []

    # -- statement visitors ----------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.AST:
        self._wrote_r.append(False)
        node.body = self._block(node.body)
        if self._wrote_r.pop():
            insert_at = 0
            if (
                node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)
            ):
                insert_at = 1  # keep the docstring first
            node.body.insert(insert_at, ast.Global(names=[R_NAME]))
        return node

    def visit_Lambda(self, node: ast.Lambda) -> ast.AST:
        return node

    def visit_ClassDef(self, node: ast.ClassDef) -> ast.AST:
        return node

    def visit_If(self, node: ast.If):
        label = self.labels.get(id(node))
        node.body = self._block(node.body)
        node.orelse = self._block(node.orelse)
        if label is None:
            return node
        probe, out = self._site(label, node.test)
        if probe is None:
            # Def. 4.2(c) resolved at compile time: the probe is stripped
            # entirely and the bare *lowered* test runs (the instrumented
            # tiers fold ``not`` into flipped comparison operators, which is
            # observable on NaN operands -- the stripped site must branch
            # identically).
            node.test = self._bare_test(node.test)
            return node
        node.test = _name(out)
        return probe + [node]

    def visit_While(self, node: ast.While):
        label = self.labels.get(id(node))
        node.body = self._block(node.body)
        node.orelse = self._block(node.orelse)
        if label is None:
            return node
        probe, out = self._site(label, node.test)
        if probe is None:
            node.test = self._bare_test(node.test)
            return node
        # The probe must run once per iteration, so the loop becomes
        # ``while True: <probe>; if not out: break; <body>``.  A ``while ...
        # else`` keeps its semantics through a normal-exit flag checked after
        # the loop (a ``break`` in the body skips it, exactly as before).
        if node.orelse:
            flag = self._temp()
            guard = _if(_not(_name(out)), [_assign(flag, _const(True)), ast.Break()])
            loop = ast.While(
                test=_const(True), body=probe + [guard] + node.body, orelse=[]
            )
            return [
                _assign(flag, _const(False)),
                loop,
                _if(_name(flag), node.orelse),
            ]
        guard = _if(_not(_name(out)), [ast.Break()])
        return [ast.While(test=_const(True), body=probe + [guard] + node.body, orelse=[])]

    # -- probe emission --------------------------------------------------------

    def _block(self, stmts: list) -> list:
        out: list = []
        for stmt in stmts:
            result = self.visit(stmt)
            if isinstance(result, list):
                out.extend(result)
            elif result is not None:
                out.append(result)
        return out

    def _temp(self) -> str:
        name = f"{TEMP_PREFIX}{self._counter}"
        self._counter += 1
        return name

    def _set_r(self, value: ast.expr) -> ast.stmt:
        if self._wrote_r:
            self._wrote_r[-1] = True
        return _assign(R_NAME, value)

    def _cov_write(self, label: int, out: str) -> list:
        """``__sp_cov__[2*label | out] = 1`` (mirrors the fast runtime) in
        the mask-generic form; nothing under a concrete mask, whose variants
        compute ``r`` only."""
        if self.saturated_mask is not None:
            return []
        index = ast.BinOp(left=_const(label << 1), op=ast.BitOr(), right=_name(out))
        target = ast.Subscript(value=_name(COV_NAME), slice=index, ctx=ast.Store())
        return [ast.Assign(targets=[target], value=_const(1))]

    def _site(self, label: int, test: ast.expr) -> tuple[Optional[list], Optional[str]]:
        """The probe statements of one labeled site and its outcome var;
        ``(None, None)`` when the mask strips the probe (both branches
        saturated).  Without a mask, the site reads its two bits from
        :data:`SAT_NAME` and dispatches Def. 4.2 at run time."""
        if self.saturated_mask is None:
            bits = self._temp()
            read = ast.Subscript(value=_name(SAT_NAME), slice=_const(label), ctx=ast.Load())
            probe, out = self._probe(label, bits, test)
            return [_assign(bits, read)] + probe, out
        bits = (self.saturated_mask >> (label << 1)) & 3
        if bits == 3:
            return None, None
        return self._probe(label, bits, test)

    def _per_bits(self, bits, update: Callable[[int], list]) -> list:
        """``update(bits)`` at a per-mask site.  At a mask-generic site
        (``bits`` names the variable holding the site's two mask bits) a
        runtime dispatch over the Def. 4.2 cases: 0 and the one-saturated
        cases 1 and 2 run their update, 3 keeps ``r``."""
        if isinstance(bits, int):
            return update(bits)
        chain: list = []
        for case in (2, 1, 0):
            body = update(case) or [ast.Pass()]
            chain = [_if(_compare(_name(bits), "==", _const(case)), body, chain)]
        return chain

    def _probe(self, label: int, bits, test: ast.expr) -> tuple[list, str]:
        """Statements computing one specialized probe; returns the outcome var.

        ``bits`` is the site's mask bits (0-2) or, mask-generic, the name of
        the variable holding them."""
        simple = as_simple_comparison(test)
        if simple is not None:
            op, lhs, rhs, _negated = simple
            return self._emit_simple(label, bits, op, lhs, rhs)
        stripped, _ = strip_not(test)
        if isinstance(stripped, (ast.BoolOp, ast.IfExp)) or is_chain(stripped):
            if self._tree_accepted(label, test):
                return self._emit_tree(label, bits, test)
        return self._emit_truth(label, bits, test)

    def _bare_test(self, test: ast.expr) -> ast.expr:
        """The probe-free expression a stripped site must branch on.

        This is the *lowered* test, not the source test: the instrumentation
        folds ``not`` into flipped comparison operators and De-Morgans trees
        to their leaves, which changes branch outcomes on NaN operands.  The
        reconstruction drives the instrumentation pass's own ``_TreeLowering``
        with a probe-less owner, so the evaluated structure (flipped
        operators, chain walrus temporaries, ternary shape) is identical to
        what the generic tiers execute -- minus every probe.
        """
        simple = as_simple_comparison(test)
        if simple is not None:
            op, lhs, rhs, negated = simple
            if not negated:
                return test
            return _compare(lhs, op, rhs)
        stripped, _ = strip_not(test)
        if isinstance(stripped, (ast.BoolOp, ast.IfExp)) or is_chain(stripped):
            if self._tree_accepted(0, test):
                expr, _ = _TreeLowering(_BareOwner(self), 0).lower(test, negated=False)
                return expr
        # Truth fallback/promoted sites branch on the value's truthiness,
        # which the original expression already provides.
        return test

    def _tree_accepted(self, label: int, test: ast.expr) -> bool:
        """Re-run the instrumentation pass's own ceiling check.

        The specialized tier must degrade a tree to the ``truth`` fallback
        exactly when the instrumentation pass did, or ``r`` would diverge
        between the tiers; running the same decision procedure (including its
        runtime-read ``MAX_TREE_*`` ceilings) guarantees agreement.
        """
        try:
            lowering = _TreeLowering(InstrumentationPass({}), label)
            _, tokens = lowering.lower(test, negated=False)
        except _LoweringOverflow:
            return False
        return len(tokens) <= MAX_TREE_TOKENS

    # -- operands and the conversion guard ------------------------------------

    def _operand(self, expr: ast.expr) -> tuple[list, _Val]:
        """Bind an operand once; names and constants are used in place."""
        if isinstance(expr, ast.Name):
            return [], _Val(ident=expr.id)
        if isinstance(expr, ast.Constant):
            return [], _Val(value=expr.value)
        if (
            isinstance(expr, ast.UnaryOp)
            and isinstance(expr.op, ast.USub)
            and isinstance(expr.operand, ast.Constant)
            and type(expr.operand.value) in (bool, int, float)
        ):
            # Negative literals parse as USub(Constant); fold them so sites
            # like ``x < -10.0`` keep their compile-time constant shape.
            return [], _Val(value=-expr.operand.value)
        temp = self._temp()
        return [_assign(temp, expr)], _Val(ident=temp)

    def _guarded(
        self,
        a: _Val,
        b: _Val,
        body: Callable[[_Val, _Val], list],
    ) -> list:
        """Run ``body`` with float-comparable operands, or not at all.

        Mirrors the runtimes' degradation: operands are converted with
        ``float()`` when either is not exactly a float, and a conversion
        failure (``TypeError``/``ValueError``/``OverflowError``) keeps ``r``.
        Conversion order (lhs first) is preserved for side-effect parity.
        """
        av = a.const_float()
        bv = b.const_float()
        if a.unconvertible:
            # float(lhs-constant) raises immediately; nothing else runs.
            return []
        if b.unconvertible:
            if av is not None:
                return []  # float(const) is side-effect free, float(rhs) raises
            # Dynamic lhs converts first (observable via a custom __float__),
            # then the rhs constant's conversion fails and keeps r.
            return [
                ast.Try(
                    body=[ast.Expr(value=_call("float", [a.node()]))],
                    handlers=[_convert_handler()],
                    orelse=[],
                    finalbody=[],
                )
            ]
        if av is not None and bv is not None:
            return body(_Val(value=av), _Val(value=bv))
        if av is not None:
            conv = self._temp()
            return [
                _if(
                    _is_float_class(b.node()),
                    body(_Val(value=av), b),
                    [_try_convert([(conv, b.node())], body(_Val(value=av), _Val(ident=conv)))],
                )
            ]
        if bv is not None:
            conv = self._temp()
            return [
                _if(
                    _is_float_class(a.node()),
                    body(a, _Val(value=bv)),
                    [_try_convert([(conv, a.node())], body(_Val(ident=conv), _Val(value=bv)))],
                )
            ]
        ca, cb = self._temp(), self._temp()
        return [
            _if(
                ast.BoolOp(
                    op=ast.And(),
                    values=[_is_float_class(a.node()), _is_float_class(b.node())],
                ),
                body(a, b),
                [
                    _try_convert(
                        [(ca, a.node()), (cb, b.node())],
                        body(_Val(ident=ca), _Val(ident=cb)),
                    )
                ],
            )
        ]

    def _nan_terms(self, *vals: _Val) -> list:
        """``x != x`` checks for the operands that can be NaN at run time."""
        return [_compare(v.node(), "!=", v.node()) for v in vals if not v.is_const]

    def _squared_gap_expr(self, a: _Val, b: _Val) -> ast.expr:
        """``min((a - b)**2, 1e300)`` with the inf clamp of ``_squared_gap``."""
        gap = self._temp()
        bound = ast.NamedExpr(
            target=ast.Name(id=gap, ctx=ast.Store()),
            value=ast.BinOp(left=a.node(), op=ast.Sub(), right=b.node()),
        )
        test = ast.BoolOp(
            op=ast.Or(),
            values=[
                ast.Compare(left=bound, ops=[ast.Eq()], comparators=[_const(_INF)]),
                _compare(_name(gap), "==", _const(-_INF)),
            ],
        )
        square = ast.BinOp(left=_name(gap), op=ast.Mult(), right=_name(gap))
        return ast.IfExp(
            test=test,
            body=_const(BIG_DISTANCE),
            orelse=_call("min", [square, _const(BIG_DISTANCE)]),
        )

    def _branch_distance_expr(self, op: str, a: _Val, b: _Val) -> ast.expr:
        """Inline ``branch_distance(op, a, b)`` exactly."""
        eps = _const(DEFAULT_EPSILON)
        if op == "==":
            return self._squared_gap_expr(a, b)
        if op == "!=":
            return ast.IfExp(test=_compare(a.node(), "!=", b.node()), body=_const(0.0), orelse=eps)
        if op == "<=":
            return ast.IfExp(
                test=_compare(a.node(), "<=", b.node()),
                body=_const(0.0),
                orelse=self._squared_gap_expr(a, b),
            )
        if op == "<":
            plus_eps = ast.BinOp(left=self._squared_gap_expr(a, b), op=ast.Add(), right=eps)
            return ast.IfExp(
                test=_compare(a.node(), "<", b.node()), body=_const(0.0), orelse=plus_eps
            )
        if op == ">=":  # branch_distance("<=", b, a)
            return self._branch_distance_expr("<=", b, a)
        if op == ">":  # branch_distance("<", b, a)
            return self._branch_distance_expr("<", b, a)
        raise SpecializationError(f"unsupported comparison operator {op!r}")

    # -- simple comparison sites ------------------------------------------------

    def _emit_simple(
        self, label: int, bits, op: str, lhs: ast.expr, rhs: ast.expr
    ) -> tuple[list, str]:
        pre_a, a = self._operand(lhs)
        pre_b, b = self._operand(rhs)
        out = self._temp()
        stmts = pre_a + pre_b + [_assign(out, _compare(a.node(), op, b.node()))]
        # FastRuntime.test writes the covered bit before any distance work
        # (and before a conversion can raise).
        stmts += self._cov_write(label, out)
        stmts += self._per_bits(bits, lambda case: self._simple_update(case, op, a, b))
        return stmts, out

    def _simple_update(self, bits: int, op: str, a: _Val, b: _Val) -> list:
        """The ``r`` update of a simple comparison site under ``bits``."""
        if bits == 0:
            return self._guarded(a, b, lambda fa, fb: [self._set_r(_const(0.0))])
        op_eff = op if bits == 1 else negate_op(op)
        if bits == 1:
            nan_r = 0.0 if op == "!=" else BIG_DISTANCE
        else:
            nan_r = BIG_DISTANCE if op == "!=" else 0.0

        def body(fa: _Val, fb: _Val) -> list:
            dist = self._set_r(self._branch_distance_expr(op_eff, fa, fb))
            terms = self._nan_terms(fa, fb)
            if not terms:
                return [dist]
            test = terms[0] if len(terms) == 1 else ast.BoolOp(op=ast.Or(), values=terms)
            return [_if(test, [self._set_r(_const(nan_r))], [dist])]

        return self._guarded(a, b, body)

    # -- promoted truthiness sites ----------------------------------------------

    def _emit_truth(self, label: int, bits, test: ast.expr) -> tuple[list, str]:
        value = self._temp()
        out = self._temp()
        stmts = [_assign(value, test), _assign(out, _not(_not(_name(value))))]
        stmts += self._per_bits(bits, lambda case: self._truth_update(case, value))
        stmts += self._cov_write(label, out)
        return stmts, out

    def _truth_update(self, bits: int, value: str) -> list:
        """The ``r`` update of a promoted truthiness site under ``bits``."""
        eps = _const(DEFAULT_EPSILON)
        if bits == 0:
            bool_body = [self._set_r(_const(0.0))]
            num_body = [self._set_r(_const(0.0))]
            conv = self._temp()
            numeric = _try_convert([(conv, _name(value))], num_body)
        else:
            if bits == 1:  # steer towards the true branch: r = d_true
                bool_body = [self._set_r(ast.IfExp(test=_name(value), body=_const(0.0), orelse=eps))]
                nan_r = 0.0  # d_true of "!= 0" with a NaN value
            else:  # steer towards the false branch: r = d_false
                bool_body = [self._set_r(ast.IfExp(test=_name(value), body=eps, orelse=_const(0.0)))]
                nan_r = BIG_DISTANCE
            conv = self._temp()
            cval = _Val(ident=conv)
            if bits == 1:
                dist = self._set_r(
                    ast.IfExp(
                        test=_compare(_name(conv), "!=", _const(0.0)),
                        body=_const(0.0),
                        orelse=eps,
                    )
                )
            else:
                dist = self._set_r(self._squared_gap_expr(cval, _Val(value=0.0)))
            num_body = [
                _if(
                    _compare(_name(conv), "!=", _name(conv)),
                    [self._set_r(_const(nan_r))],
                    [dist],
                )
            ]
            numeric = _try_convert([(conv, _name(value))], num_body)
        is_bool = ast.Compare(
            left=ast.Attribute(value=_name(value), attr="__class__", ctx=ast.Load()),
            ops=[ast.Is()],
            comparators=[_name("bool")],
        )
        is_num = _call(
            "isinstance",
            [_name(value), ast.Tuple(elts=[_name("int"), _name("float")], ctx=ast.Load())],
        )
        return [_if(is_bool, bool_body, [_if(is_num, [numeric])])]

    # -- Boolean-tree sites -------------------------------------------------------

    def _emit_tree(self, label: int, bits, test: ast.expr) -> tuple[list, str]:
        root = self._temp()
        if bits == 0:
            stmts = self._tree_neither(test, root)
        elif isinstance(bits, int):
            need_t = bits == 1
            stmts = self._tree_steer(
                test, root, need_t, not need_t,
                lambda emitted: _name(emitted.t if need_t else emitted.f),
            )
        else:
            # Mask-generic: the leaves short-circuit differently per case,
            # so each case evaluates its own copy of the test.  Both
            # directions of the steering form are computed independently
            # of each other, so one copy serves both one-saturated cases.
            bare = self._bare_test(copy.deepcopy(test))
            stmts = [
                _if(
                    _compare(_name(bits), "==", _const(3)),
                    [_if(bare, [_assign(root, _const(True))], [_assign(root, _const(False))])],
                    [
                        _if(
                            _compare(_name(bits), "==", _const(0)),
                            self._tree_neither(copy.deepcopy(test), root),
                            self._tree_steer(
                                copy.deepcopy(test), root, True, True,
                                lambda emitted: ast.IfExp(
                                    test=_compare(_name(bits), "==", _const(1)),
                                    body=_name(emitted.t),
                                    orelse=_name(emitted.f),
                                ),
                            ),
                        )
                    ],
                )
            ]
        stmts += self._cov_write(label, root)
        return stmts, root

    def _tree_neither(self, test: ast.expr, root: str) -> list:
        """A tree site with neither branch saturated: ``r = 0`` when some
        evaluated leaf is float-comparable."""
        shared_u = self._temp()
        emitted = self._emit_spec(self._build_spec(test, False), False, False, shared_u)
        return (
            [_assign(shared_u, _const(0))]
            + emitted.stmts
            + [
                _assign(root, _not(_not(_name(emitted.out)))),
                _if(_name(shared_u), [self._set_r(_const(0.0))]),
            ]
        )

    def _tree_steer(
        self, test: ast.expr, root: str, need_t: bool, need_f: bool,
        steer: Callable[[_Emitted], ast.expr],
    ) -> list:
        """A tree site with one branch saturated: ``r`` becomes the composed
        distance ``steer`` picks, when the composition is usable."""
        emitted = self._emit_spec(self._build_spec(test, False), need_t, need_f, None)
        assert emitted.u is not None
        return list(emitted.stmts) + [
            _assign(root, _not(_not(_name(emitted.out)))),
            _if(_name(emitted.u), [self._set_r(steer(emitted))]),
        ]

    def _build_spec(self, node: ast.expr, negated: bool):
        """Mirror of ``_TreeLowering.lower``: same structure, same leaf order."""
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return self._build_spec(node.operand, not negated)
        if isinstance(node, ast.BoolOp):
            is_and = isinstance(node.op, ast.And)
            if negated:
                is_and = not is_and
            return _Bool(is_and, [self._build_spec(v, negated) for v in node.values])
        if isinstance(node, ast.IfExp):
            return _Tern(
                self._build_spec(node.test, False),
                self._build_spec(node.body, negated),
                self._build_spec(node.orelse, negated),
            )
        if isinstance(node, ast.Compare) and all(type(op) in _AST_OPS for op in node.ops):
            if len(node.ops) == 1:
                op = _AST_OPS[type(node.ops[0])]
                if negated:
                    op = _NEGATED[op]
                return _Cmp(op, node.left, node.comparators[0], [])
            # Chained comparison: middle operands bound once, links composed
            # with ``and`` (``or`` of flipped links under De Morgan).
            children = []
            lhs: ast.expr = node.left
            last = len(node.ops) - 1
            for index, (op_node, comparator) in enumerate(zip(node.ops, node.comparators)):
                op = _AST_OPS[type(op_node)]
                if negated:
                    op = _NEGATED[op]
                if index < last:
                    temp = self._temp()
                    pre = [_assign(temp, comparator)]
                    rhs: ast.expr = _name(temp)
                    next_lhs: ast.expr = _name(temp)
                else:
                    pre = []
                    rhs = comparator
                    next_lhs = comparator  # unused
                children.append(_Cmp(op, lhs, rhs, pre))
                lhs = next_lhs
            return _Bool(not negated, children)
        return _Truth(node, negated)

    def _emit_spec(
        self, spec, need_t: bool, need_f: bool, shared_u: Optional[str]
    ) -> _Emitted:
        if isinstance(spec, _Cmp):
            return self._emit_cmp_leaf(spec, need_t, need_f, shared_u)
        if isinstance(spec, _Truth):
            return self._emit_truth_leaf(spec, need_t, need_f, shared_u)
        if isinstance(spec, _Bool):
            return self._emit_bool(spec, need_t, need_f, shared_u)
        if isinstance(spec, _Tern):
            return self._emit_ternary(spec, need_t, need_f, shared_u)
        raise SpecializationError(f"unknown composition spec {spec!r}")

    def _emit_cmp_leaf(
        self, spec: _Cmp, need_t: bool, need_f: bool, shared_u: Optional[str]
    ) -> _Emitted:
        pre_a, a = self._operand(spec.lhs)
        pre_b, b = self._operand(spec.rhs)
        # Probe argument order: lhs evaluates before a chain link's walrus
        # temporary (spec.pre), which evaluates before a plain rhs.
        stmts = pre_a + list(spec.pre) + pre_b
        out = self._temp()
        stmts.append(_assign(out, _compare(a.node(), spec.op, b.node())))
        if shared_u is not None:
            stmts += self._guarded(a, b, lambda fa, fb: [_assign(shared_u, _const(1))])
            return _Emitted(stmts, out)
        t_var = self._temp() if need_t else None
        f_var = self._temp() if need_f else None
        u_var = self._temp()
        stmts.append(_assign(u_var, _const(0)))
        op = spec.op
        eps = DEFAULT_EPSILON

        def body(fa: _Val, fb: _Val) -> list:
            # The fused FastRuntime.cmp arithmetic, directions on demand.
            inner: list = []
            if op == "!=":
                g_needed = need_f
            elif op == "==":
                g_needed = need_t
            else:
                g_needed = True
            g_var = None
            if g_needed:
                g_var = self._temp()
                inner.append(_assign(g_var, self._squared_gap_expr(fa, fb)))
            g = (lambda: _name(g_var)) if g_var is not None else None
            g_plus_eps = (
                (lambda: ast.BinOp(left=_name(g_var), op=ast.Add(), right=_const(eps)))
                if g_var is not None
                else None
            )
            an, bn = fa.node, fb.node
            if op == "<":
                t_expr = lambda: ast.IfExp(_compare(an(), "<", bn()), _const(0.0), g_plus_eps())
                f_expr = lambda: ast.IfExp(_compare(bn(), "<=", an()), _const(0.0), g())
            elif op == "<=":
                t_expr = lambda: ast.IfExp(_compare(an(), "<=", bn()), _const(0.0), g())
                f_expr = lambda: ast.IfExp(_compare(bn(), "<", an()), _const(0.0), g_plus_eps())
            elif op == ">":
                t_expr = lambda: ast.IfExp(_compare(bn(), "<", an()), _const(0.0), g_plus_eps())
                f_expr = lambda: ast.IfExp(_compare(an(), "<=", bn()), _const(0.0), g())
            elif op == ">=":
                t_expr = lambda: ast.IfExp(_compare(bn(), "<=", an()), _const(0.0), g())
                f_expr = lambda: ast.IfExp(_compare(an(), "<", bn()), _const(0.0), g_plus_eps())
            elif op == "==":
                t_expr = lambda: _name(g_var)
                f_expr = lambda: ast.IfExp(_compare(an(), "==", bn()), _const(eps), _const(0.0))
            else:  # "!="
                t_expr = lambda: ast.IfExp(_compare(an(), "!=", bn()), _const(0.0), _const(eps))
                f_expr = lambda: _name(g_var)
            if need_t:
                inner.append(_assign(t_var, t_expr()))
            if need_f:
                inner.append(_assign(f_var, f_expr()))
            terms = self._nan_terms(fa, fb)
            if terms:
                nan_t = 0.0 if op == "!=" else BIG_DISTANCE
                nan_f = BIG_DISTANCE if op == "!=" else 0.0
                nan_body: list = []
                if need_t:
                    nan_body.append(_assign(t_var, _const(nan_t)))
                if need_f:
                    nan_body.append(_assign(f_var, _const(nan_f)))
                test = terms[0] if len(terms) == 1 else ast.BoolOp(op=ast.Or(), values=terms)
                inner = [_if(test, nan_body, inner)]
            return inner + [_assign(u_var, _const(1))]

        stmts += self._guarded(a, b, body)
        return _Emitted(stmts, out, t_var, f_var, u_var)

    def _emit_truth_leaf(
        self, spec: _Truth, need_t: bool, need_f: bool, shared_u: Optional[str]
    ) -> _Emitted:
        value = self._temp()
        out = self._temp()
        stmts = [_assign(value, spec.value)]
        outcome: ast.expr = _not(_name(value)) if spec.negated else _not(_not(_name(value)))
        stmts.append(_assign(out, outcome))
        is_bool = ast.Compare(
            left=ast.Attribute(value=_name(value), attr="__class__", ctx=ast.Load()),
            ops=[ast.Is()],
            comparators=[_name("bool")],
        )
        is_num = _call(
            "isinstance",
            [_name(value), ast.Tuple(elts=[_name("int"), _name("float")], ctx=ast.Load())],
        )
        if shared_u is not None:
            mark = [_assign(shared_u, _const(1))]
            numeric = ast.Try(
                body=[ast.Expr(value=_call("float", [_name(value)]))],
                handlers=[_convert_handler()],
                orelse=mark,
                finalbody=[],
            )
            stmts.append(_if(is_bool, list(mark), [_if(is_num, [numeric])]))
            return _Emitted(stmts, out)
        # Unnegated promoted distances; a folded negation swaps which
        # direction each output variable receives (exactly tleaf's swap).
        t_var = self._temp() if need_t else None
        f_var = self._temp() if need_f else None
        u_var = self._temp()
        stmts.append(_assign(u_var, _const(0)))
        eps = _const(DEFAULT_EPSILON)

        def assigns(dt_expr, df_expr) -> list:
            # dt_expr/df_expr build the *unnegated* d_true/d_false.
            body: list = []
            if spec.negated:
                if need_t:
                    body.append(_assign(t_var, df_expr()))
                if need_f:
                    body.append(_assign(f_var, dt_expr()))
            else:
                if need_t:
                    body.append(_assign(t_var, dt_expr()))
                if need_f:
                    body.append(_assign(f_var, df_expr()))
            return body

        bool_body = assigns(
            lambda: ast.IfExp(test=_name(value), body=_const(0.0), orelse=eps),
            lambda: ast.IfExp(test=_name(value), body=eps, orelse=_const(0.0)),
        ) + [_assign(u_var, _const(1))]
        conv = self._temp()
        cval = _Val(ident=conv)
        nan_body = assigns(lambda: _const(0.0), lambda: _const(BIG_DISTANCE))
        num_dist = assigns(
            lambda: ast.IfExp(
                test=_compare(_name(conv), "!=", _const(0.0)), body=_const(0.0), orelse=eps
            ),
            lambda: self._squared_gap_expr(cval, _Val(value=0.0)),
        )
        num_body = [
            _if(_compare(_name(conv), "!=", _name(conv)), nan_body, num_dist),
            _assign(u_var, _const(1)),
        ]
        numeric = _try_convert([(conv, _name(value))], num_body)
        stmts.append(_if(is_bool, bool_body, [_if(is_num, [numeric])]))
        return _Emitted(stmts, out, t_var, f_var, u_var)

    def _emit_bool(
        self, spec: _Bool, need_t: bool, need_f: bool, shared_u: Optional[str]
    ) -> _Emitted:
        out = self._temp()
        if shared_u is not None:
            t_var = f_var = u_var = None
        else:
            t_var = self._temp() if need_t else None
            f_var = self._temp() if need_f else None
            u_var = self._temp()

        def fold(child: _Emitted) -> list:
            """Fold one child's pair into the node accumulators, in order."""
            if shared_u is not None:
                return []
            first: list = []
            rest: list = []
            if need_t:
                first.append(_assign(t_var, _name(child.t)))
                if spec.is_and:  # d_true adds up
                    rest.append(
                        _assign(
                            t_var,
                            ast.BinOp(left=_name(t_var), op=ast.Add(), right=_name(child.t)),
                        )
                    )
                else:  # d_true is the running minimum (first wins ties)
                    rest.append(
                        _if(
                            _compare(_name(child.t), "<", _name(t_var)),
                            [_assign(t_var, _name(child.t))],
                        )
                    )
            if need_f:
                first.append(_assign(f_var, _name(child.f)))
                if spec.is_and:
                    rest.append(
                        _if(
                            _compare(_name(child.f), "<", _name(f_var)),
                            [_assign(f_var, _name(child.f))],
                        )
                    )
                else:
                    rest.append(
                        _assign(
                            f_var,
                            ast.BinOp(left=_name(f_var), op=ast.Add(), right=_name(child.f)),
                        )
                    )
            first.append(_assign(u_var, _const(1)))
            return [_if(_name(child.u), [_if(_name(u_var), rest, first)])]

        last = len(spec.children) - 1

        def build(index: int) -> list:
            child = self._emit_spec(spec.children[index], need_t, need_f, shared_u)
            stmts = child.stmts + fold(child)
            if index == last:
                stmts.append(_assign(out, _name(child.out)))
            elif spec.is_and:
                stmts.append(
                    _if(_name(child.out), build(index + 1), [_assign(out, _const(False))])
                )
            else:
                stmts.append(
                    _if(_name(child.out), [_assign(out, _const(True))], build(index + 1))
                )
            return stmts

        stmts = build(0)
        if shared_u is None:
            stmts = [_assign(u_var, _const(0))] + stmts
        return _Emitted(stmts, out, t_var, f_var, u_var)

    def _fold_pair(
        self,
        is_and: bool,
        x: tuple[Optional[str], Optional[str], str],
        y: Optional[tuple[Optional[str], Optional[str], str]],
        need_t: bool,
        need_f: bool,
    ) -> tuple[list, tuple[Optional[str], Optional[str], str]]:
        """Two-pair composition fold into fresh accumulators.

        ``x``/``y`` are ``(t, f, u)`` variable-name triples; ``y`` may be
        ``None`` for a statically-unevaluated side (it contributes nothing,
        like a short-circuited leaf).  The arithmetic order matches
        ``_compose_tree``: ``x`` is the first pushed pair.
        """
        t_var = self._temp() if need_t else None
        f_var = self._temp() if need_f else None
        u_var = self._temp()
        stmts: list = [_assign(u_var, _const(0))]
        if y is None:
            copy: list = []
            if need_t:
                copy.append(_assign(t_var, _name(x[0])))
            if need_f:
                copy.append(_assign(f_var, _name(x[1])))
            copy.append(_assign(u_var, _const(1)))
            stmts.append(_if(_name(x[2]), copy))
            return stmts, (t_var, f_var, u_var)
        both: list = []
        if need_t:
            if is_and:
                both.append(
                    _assign(t_var, ast.BinOp(left=_name(x[0]), op=ast.Add(), right=_name(y[0])))
                )
            else:
                both.append(
                    _assign(
                        t_var,
                        ast.IfExp(
                            test=_compare(_name(y[0]), "<", _name(x[0])),
                            body=_name(y[0]),
                            orelse=_name(x[0]),
                        ),
                    )
                )
        if need_f:
            if is_and:
                both.append(
                    _assign(
                        f_var,
                        ast.IfExp(
                            test=_compare(_name(y[1]), "<", _name(x[1])),
                            body=_name(y[1]),
                            orelse=_name(x[1]),
                        ),
                    )
                )
            else:
                both.append(
                    _assign(f_var, ast.BinOp(left=_name(x[1]), op=ast.Add(), right=_name(y[1])))
                )
        x_only: list = []
        y_only: list = []
        if need_t:
            x_only.append(_assign(t_var, _name(x[0])))
            y_only.append(_assign(t_var, _name(y[0])))
        if need_f:
            x_only.append(_assign(f_var, _name(x[1])))
            y_only.append(_assign(f_var, _name(y[1])))
        stmts.append(
            _if(
                _name(x[2]),
                [_if(_name(y[2]), both, x_only), _assign(u_var, _const(1))],
                [_if(_name(y[2]), y_only + [_assign(u_var, _const(1))])],
            )
        )
        return stmts, (t_var, f_var, u_var)

    def _emit_ternary(
        self, spec: _Tern, need_t: bool, need_f: bool, shared_u: Optional[str]
    ) -> _Emitted:
        out = self._temp()
        if shared_u is not None:
            cond = self._emit_spec(spec.cond, False, False, shared_u)
            body = self._emit_spec(spec.body, False, False, shared_u)
            orelse = self._emit_spec(spec.orelse, False, False, shared_u)
            stmts = cond.stmts + [
                _if(
                    _name(cond.out),
                    body.stmts + [_assign(out, _name(body.out))],
                    orelse.stmts + [_assign(out, _name(orelse.out))],
                )
            ]
            return _Emitted(stmts, out)
        # ``a if c else b`` composes as ``(c and a) or (not c and b)``; the
        # condition's distances are shared by both conjuncts, so both of its
        # directions are needed whatever the parent asked for.
        cond = self._emit_spec(spec.cond, True, True, None)
        t_var = self._temp() if need_t else None
        f_var = self._temp() if need_f else None
        u_var = self._temp()
        cond_pair = (cond.t, cond.f, cond.u)
        cond_swapped = (cond.f, cond.t, cond.u)

        def finish(result: tuple[Optional[str], Optional[str], str]) -> list:
            copy: list = []
            if need_t:
                copy.append(_assign(t_var, _name(result[0])))
            if need_f:
                copy.append(_assign(f_var, _name(result[1])))
            return copy + [_assign(u_var, _name(result[2]))]

        # True branch: and1 = (cond, body); and2 = (not cond) alone.
        body = self._emit_spec(spec.body, need_t, need_f, None)
        and1_stmts, and1 = self._fold_pair(
            True, cond_pair, (body.t, body.f, body.u), need_t, need_f
        )
        and2_stmts, and2 = self._fold_pair(True, cond_swapped, None, need_t, need_f)
        or_stmts, merged = self._fold_pair(False, and1, and2, need_t, need_f)
        true_branch = (
            body.stmts
            + and1_stmts
            + and2_stmts
            + or_stmts
            + finish(merged)
            + [_assign(out, _name(body.out))]
        )
        # False branch: and1 = cond alone; and2 = (not cond, orelse).
        orelse = self._emit_spec(spec.orelse, need_t, need_f, None)
        and1_stmts, and1 = self._fold_pair(True, cond_pair, None, need_t, need_f)
        and2_stmts, and2 = self._fold_pair(
            True, cond_swapped, (orelse.t, orelse.f, orelse.u), need_t, need_f
        )
        or_stmts, merged = self._fold_pair(False, and1, and2, need_t, need_f)
        false_branch = (
            orelse.stmts
            + and1_stmts
            + and2_stmts
            + or_stmts
            + finish(merged)
            + [_assign(out, _name(orelse.out))]
        )
        stmts = cond.stmts + [_if(_name(cond.out), true_branch, false_branch)]
        return _Emitted(stmts, out, t_var, f_var, u_var)


# -- source-level entry points -----------------------------------------------------------


def specialize_source(
    source: str,
    function_name: str | None = None,
    start_label: int = 0,
    saturated_mask: Optional[int] = 0,
) -> tuple[ast.Module, int]:
    """Specialize one function's source against a concrete saturation mask.

    Labels are assigned by the same walk as :func:`instrument_source`, so a
    site's label (and therefore its two mask bits) is identical across the
    generic and the specialized tier.  Under a concrete mask the result
    computes ``r`` only.  With ``saturated_mask=None`` it is
    *mask-generic*: every site reads its two bits from :data:`SAT_NAME` at
    run time, branches to the same per-case code a concrete mask would
    compile to, and always writes its covered bit into :data:`COV_NAME`
    (the form the native kernels are emitted from).  Returns the transformed
    module AST and the number of labeled conditionals.
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
        raise SpecializationError(
            f"could not find function {function_name!r} in the provided source"
        )
    func_node.decorator_list = []
    labels, _ = assign_labels(func_node, start=start_label)
    specializer = _Specializer(labels, saturated_mask)
    specializer.visit(func_node)
    ast.fix_missing_locations(tree)
    return tree, len(labels)


@dataclass(frozen=True)
class SpecializedUnit:
    """Immutable compiled artifacts of one specialized source (cacheable)."""

    code: CodeType
    n_conditionals: int


#: Module-level specialization cache: (source sha256, function name, start
#: label, saturated mask) -> SpecializedUnit.  Masks repeat across
#: starts/epochs and workers, so one compile serves many namespaces.
_SPECIALIZED_CACHE: dict[tuple, SpecializedUnit] = {}
_SPECIALIZED_CACHE_LOCK = threading.Lock()
_SPECIALIZED_CACHE_MAX = 1024
_SPECIALIZED_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def specialized_unit(
    source: str,
    function_name: str,
    start_label: int,
    saturated_mask: int,
) -> SpecializedUnit:
    """Specialize + compile ``source``, memoized on its hash and the mask."""
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    key = (digest, function_name, start_label, saturated_mask)
    with _SPECIALIZED_CACHE_LOCK:
        unit = _SPECIALIZED_CACHE.get(key)
        if unit is not None:
            _SPECIALIZED_CACHE_STATS["hits"] += 1
            return unit
        _SPECIALIZED_CACHE_STATS["misses"] += 1
    tree, n_conditionals = specialize_source(
        source,
        function_name=function_name,
        start_label=start_label,
        saturated_mask=saturated_mask,
    )
    code = compile_tree(tree, f"<specialized:{function_name}:{saturated_mask:x}>")
    unit = SpecializedUnit(code=code, n_conditionals=n_conditionals)
    with _SPECIALIZED_CACHE_LOCK:
        while len(_SPECIALIZED_CACHE) >= _SPECIALIZED_CACHE_MAX:
            # FIFO bound: masks from finished epochs age out first.
            _SPECIALIZED_CACHE.pop(next(iter(_SPECIALIZED_CACHE)))
            _SPECIALIZED_CACHE_STATS["evictions"] += 1
        _SPECIALIZED_CACHE[key] = unit
    return unit


def specialized_cache_info() -> dict[str, int]:
    """Size and hit/miss/evict statistics of the specialization cache."""
    with _SPECIALIZED_CACHE_LOCK:
        return {
            "entries": len(_SPECIALIZED_CACHE),
            "max_entries": _SPECIALIZED_CACHE_MAX,
            **_SPECIALIZED_CACHE_STATS,
        }


def clear_specialized_cache() -> None:
    """Drop every cached specialization and reset its statistics."""
    with _SPECIALIZED_CACHE_LOCK:
        _SPECIALIZED_CACHE.clear()
        for key in _SPECIALIZED_CACHE_STATS:
            _SPECIALIZED_CACHE_STATS[key] = 0
