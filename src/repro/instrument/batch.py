"""Batched vectorized penalty kernels (the batched specialized tier).

One kernel call evaluates ``N`` starts: given the same lowered IR and
saturation mask the scalar specializer consumes
(:mod:`repro.instrument.specialize`), this module compiles a **batched
kernel** -- a callable taking an ``(N, arity)`` float64 array and returning
the ``(N,)`` penalty vector ``r`` plus a union covered-bit summary.

Two modes exist behind one interface:

* **vector** -- the whole program is interpreted lane-parallel with numpy:
  every statement is compiled once into a closure operating on length-``N``
  arrays under a boolean *lane mask*, probe sites inline the same fused
  Def. 4.2 distance arithmetic the scalar specializer emits (same NaN
  constants, same composition fold ordering as ``_compose_tree``), and
  divergent control flow splits the mask instead of branching.  Only
  programs whose statements and expressions fall inside a strict whitelist
  compile to this mode.
* **rows** -- the universal fallback: a tight per-row loop over the
  program's existing :class:`~repro.instrument.program.SpecializedVariant`,
  amortizing the per-call wrapper overhead while keeping literally the
  scalar tier's execution.

Either way ``r`` is **bit-identical row-for-row** with the scalar
``PENALTY_SPECIALIZED`` tier (property-tested in ``tests/test_batch.py``).
Lanes whose scalar execution would raise a swallowed exception
(``ZeroDivisionError``, ``int()`` of a NaN, a negative shift count) are
*frozen*: deactivated with whatever ``r`` and covered bits they had, exactly
like the scalar tier's swallow-and-keep-``r`` contract.  Conditions the
lane-parallel interpreter cannot replicate bit-exactly (a shift count above
63, ``int()`` beyond int64) raise an internal bailout that **stickily
demotes** the kernel to rows mode -- correctness never depends on the
whitelist being perfect.

Compiled kernels are cached at module level per ``(source sha256, function
name, start label, mask, epsilon)`` exactly like the scalar specialization
cache, and the statistics surface through
``repro.instrument.program.compiled_cache_info()``.
"""

from __future__ import annotations

import ast
import builtins
import hashlib
import textwrap
import threading
from typing import Callable, Optional

import numpy as np

from repro.core.branch_distance import DEFAULT_EPSILON
from repro.instrument.ast_pass import (
    _AST_OPS,
    _NEGATED,
    MAX_TREE_TOKENS,
    InstrumentationPass,
    _LoweringOverflow,
    _TreeLowering,
    as_simple_comparison,
    assign_labels,
    is_chain,
    strip_not,
)
from repro.instrument.runtime import BIG_DISTANCE

#: Exceptions the scalar tiers swallow; vector lanes freeze instead.
_SWALLOWED = (ArithmeticError, ValueError, OverflowError)

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


class _Unvectorizable(Exception):
    """Static analysis verdict: compile this program in rows mode."""


class _VectorBailout(Exception):
    """Runtime verdict: this batch hit a non-replicable condition."""


# -- composition specs (mirrors _Specializer._build_spec shapes) -------------------------


class _Cmp:
    __slots__ = ("op", "lhs", "rhs", "pre")

    def __init__(self, op, lhs, rhs, pre):
        self.op, self.lhs, self.rhs, self.pre = op, lhs, rhs, pre


class _Truth:
    __slots__ = ("value", "negated")

    def __init__(self, value, negated):
        self.value, self.negated = value, negated


class _Bool:
    __slots__ = ("is_and", "children")

    def __init__(self, is_and, children):
        self.is_and, self.children = is_and, children


class _Tern:
    __slots__ = ("cond", "body", "orelse")

    def __init__(self, cond, body, orelse):
        self.cond, self.body, self.orelse = cond, body, orelse


class _Ctx:
    """Per-batch interpreter state: lane environment, masks, r, coverage."""

    __slots__ = ("env", "active", "r", "cov", "n")

    def __init__(self, env, active, r, n):
        self.env = env
        self.active = active
        self.r = r
        self.cov = 0
        self.n = n


# -- dtype helpers ------------------------------------------------------------------------


def _f64(v, n):
    """``v`` as a float64 array of length ``n`` (Python float() semantics)."""
    if isinstance(v, np.ndarray):
        if v.dtype == np.float64:
            return v
        return v.astype(np.float64)
    return np.full(n, float(v), dtype=np.float64)


def _num(v):
    """Promote bool arrays to int64 so arithmetic matches Python ints."""
    if isinstance(v, np.ndarray) and v.dtype == np.bool_:
        return v.astype(np.int64)
    if isinstance(v, bool):
        return int(v)
    return v


def _truthy(v, n):
    """Python truthiness per lane: bool stays, numeric becomes ``v != 0``."""
    if isinstance(v, np.ndarray):
        if v.dtype == np.bool_:
            return v
        return v != 0
    return np.full(n, bool(v), dtype=np.bool_)


def _raw_bits(v, n):
    """int64 view of the float64 bit patterns (contiguity guaranteed)."""
    a = np.ascontiguousarray(_f64(v, n))
    return a.view(np.int64)


def _squared_gap(a, b):
    """Vector mirror of ``_squared_gap``: inf gap clamps to BIG_DISTANCE."""
    gap = a - b
    return np.where(
        np.isinf(gap),
        BIG_DISTANCE,
        np.minimum(gap * gap, BIG_DISTANCE),
    )


def _branch_distance(op, a, b, eps):
    """Vector mirror of ``branch_distance(op, a, b, epsilon)`` exactly."""
    if op == "==":
        return _squared_gap(a, b)
    if op == "!=":
        return np.where(a != b, 0.0, eps)
    if op == "<=":
        return np.where(a <= b, 0.0, _squared_gap(a, b))
    if op == "<":
        return np.where(a < b, 0.0, _squared_gap(a, b) + eps)
    if op == ">=":
        return _branch_distance("<=", b, a, eps)
    if op == ">":
        return _branch_distance("<", b, a, eps)
    raise _Unvectorizable(f"unsupported comparison operator {op!r}")


def _pair_distances(op, a, b, eps):
    """Both directions of the fused FastRuntime.cmp arithmetic, per lane."""
    if op == "!=":
        g = _squared_gap(a, b)
        return np.where(a != b, 0.0, eps), g
    if op == "==":
        g = _squared_gap(a, b)
        return g, np.where(a == b, eps, 0.0)
    g = _squared_gap(a, b)
    if op == "<":
        return np.where(a < b, 0.0, g + eps), np.where(b <= a, 0.0, g)
    if op == "<=":
        return np.where(a <= b, 0.0, g), np.where(b < a, 0.0, g + eps)
    if op == ">":
        return np.where(b < a, 0.0, g + eps), np.where(a <= b, 0.0, g)
    if op == ">=":
        return np.where(b <= a, 0.0, g), np.where(a < b, 0.0, g + eps)
    raise _Unvectorizable(f"unsupported comparison operator {op!r}")


# -- intrinsic calls ----------------------------------------------------------------------

_LOW_MASK = 0xFFFFFFFF
_ABS64 = 0x7FFFFFFFFFFFFFFF


def _view_f64(bits64):
    return np.ascontiguousarray(bits64).view(np.float64)


def _make_intrinsics():
    """Map supported callables (by identity) to their lane-parallel bodies.

    Every entry replicates the scalar helper of :mod:`repro.fdlibm.bits` (or
    the builtin) bit-for-bit on the lanes selected by ``eff``; garbage on
    masked lanes is fine because every consumer stores through ``np.where``.
    """
    from repro.fdlibm import bits as _bits

    def i_high_word(ctx, eff, x):
        return _raw_bits(x, ctx.n) >> 32  # arithmetic shift == signed high word

    def i_low_word(ctx, eff, x):
        return _raw_bits(x, ctx.n) & _LOW_MASK

    def i_from_words(ctx, eff, hi, lo):
        hi64 = _num(hi) & _LOW_MASK
        lo64 = _num(lo) & _LOW_MASK
        return _view_f64((hi64 << np.int64(32)) | lo64)

    def i_set_high_word(ctx, eff, x, hi):
        raw = _raw_bits(x, ctx.n)
        return _view_f64(((_num(hi) & _LOW_MASK) << np.int64(32)) | (raw & _LOW_MASK))

    def i_set_low_word(ctx, eff, x, lo):
        raw = _raw_bits(x, ctx.n)
        return _view_f64((raw & np.int64(-0x100000000)) | (_num(lo) & _LOW_MASK))

    def i_abs_high_word(ctx, eff, x):
        return (_raw_bits(x, ctx.n) >> 32) & 0x7FFFFFFF

    def i_copysign_bit(ctx, eff, x, y):
        rx = _raw_bits(x, ctx.n)
        ry = _raw_bits(y, ctx.n)
        return _view_f64((rx & np.int64(_ABS64)) | (ry & np.int64(_I64_MIN)))

    def i_fabs(ctx, eff, x):
        return _view_f64(_raw_bits(x, ctx.n) & np.int64(_ABS64))

    def i_float(ctx, eff, x):
        return _f64(x, ctx.n)

    def i_int(ctx, eff, x):
        x = _num(x)
        if not isinstance(x, np.ndarray):
            return int(x)
        if x.dtype != np.float64:
            return x
        live = eff & ctx.active
        bad = live & ~np.isfinite(x)
        if bad.any():
            # int(nan) raises ValueError, int(inf) OverflowError: both
            # swallowed by the scalar tier, so these lanes freeze.
            ctx.active &= ~bad
            live = live & ~bad
        if (live & (np.abs(x) >= 9.223372036854776e18)).any():
            raise _VectorBailout("int() beyond int64 range")
        safe = np.where(np.isfinite(x), x, 0.0)
        return np.trunc(safe).astype(np.int64)

    def i_abs(ctx, eff, x):
        x = _num(x)
        if isinstance(x, np.ndarray) and x.dtype == np.float64:
            return i_fabs(ctx, eff, x)
        return abs(x) if not isinstance(x, np.ndarray) else np.abs(x)

    return {
        _bits.high_word: i_high_word,
        _bits.low_word: i_low_word,
        _bits.from_words: i_from_words,
        _bits.set_high_word: i_set_high_word,
        _bits.set_low_word: i_set_low_word,
        _bits.abs_high_word: i_abs_high_word,
        _bits.copysign_bit: i_copysign_bit,
        _bits.fabs: i_fabs,
        builtins.float: i_float,
        builtins.int: i_int,
        builtins.abs: i_abs,
    }


_INTRINSICS = None
_INTRINSICS_LOCK = threading.Lock()


def _intrinsics():
    global _INTRINSICS
    if _INTRINSICS is None:
        with _INTRINSICS_LOCK:
            if _INTRINSICS is None:
                _INTRINSICS = _make_intrinsics()
    return _INTRINSICS


# -- the lane-masked compiler -------------------------------------------------------------

_BIN_OPS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
    ast.BitAnd: "&",
    ast.BitOr: "|",
    ast.BitXor: "^",
    ast.LShift: "<<",
    ast.RShift: ">>",
}

_CMP_FUNCS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _is_bool_value(v) -> bool:
    if isinstance(v, np.ndarray):
        return v.dtype == np.bool_
    return isinstance(v, bool)


def _as_bool_array(v, n):
    if isinstance(v, np.ndarray):
        return v
    return np.full(n, bool(v), dtype=np.bool_)


def _store(ctx, name, value, eff):
    """Masked store: ``env[name]`` keeps its old value on unselected lanes."""
    old = ctx.env.get(name)
    if old is None:
        if isinstance(value, np.ndarray):
            old = np.zeros(ctx.n, dtype=value.dtype)
        elif isinstance(value, bool):
            old = np.zeros(ctx.n, dtype=np.bool_)
        elif isinstance(value, int):
            old = np.zeros(ctx.n, dtype=np.int64)
        else:
            old = np.zeros(ctx.n, dtype=np.float64)
    ctx.env[name] = np.where(eff, value, old)


def _update_cov(ctx, label, out, eff):
    """Union covered-bit summary: any lane taking a direction sets its bit."""
    if bool((eff & out).any()):
        ctx.cov |= 1 << ((label << 1) | 1)
    if bool((eff & ~out).any()):
        ctx.cov |= 1 << (label << 1)


def _vfold_pair(is_and, x, y):
    """Per-lane mirror of ``_Specializer._fold_pair`` on (t, f, u) triples."""
    xt, xf, xu = x
    if y is None:
        return xt, xf, xu
    yt, yf, yu = y
    both = xu & yu
    if is_and:
        t = xt + yt
        f = np.where(yf < xf, yf, xf)
    else:
        t = np.where(yt < xt, yt, xt)
        f = xf + yf
    t = np.where(both, t, np.where(xu, xt, yt))
    f = np.where(both, f, np.where(xu, xf, yf))
    return t, f, xu | yu


#: Prefix of vector-compiler chain temporaries (kept out of user locals).
_TEMP_PREFIX = "__bt"


class _VectorCompiler:
    """Compiles one instrumented unit into lane-masked statement closures.

    Statement closures have signature ``f(ctx, m)`` -- ``m`` is the incoming
    lane mask; each re-intersects with ``ctx.active`` so lanes frozen by an
    earlier fault stop participating.  Expression closures have signature
    ``f(ctx, eff) -> value`` and may shrink ``ctx.active`` (faults) but never
    mutate ``eff``; consumers re-intersect after every sub-evaluation.
    Anything outside the whitelist raises :class:`_Unvectorizable` at compile
    time, demoting the whole program to rows mode.
    """

    def __init__(self, labels, saturated_mask, epsilon, namespace):
        self.labels = labels
        self.mask = saturated_mask
        self.eps = epsilon
        self.ns = namespace
        self.local_names: set[str] = set()
        self._counter = 0

    # -- statements ------------------------------------------------------------

    def _temp(self) -> str:
        name = f"{_TEMP_PREFIX}{self._counter}"
        self._counter += 1
        self.local_names.add(name)
        return name

    def _block(self, stmts) -> list:
        out = []
        for stmt in stmts:
            fn = self._stmt(stmt)
            if fn is not None:
                out.append(fn)
        return out

    def _stmt(self, node):
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
                raise _Unvectorizable("only single-name assignment targets")
            return self._make_store(node.targets[0].id, self._expr(node.value))
        if isinstance(node, ast.AugAssign):
            if not isinstance(node.target, ast.Name):
                raise _Unvectorizable("augmented assignment to non-name")
            load = ast.Name(id=node.target.id, ctx=ast.Load())
            binop = ast.BinOp(left=load, op=node.op, right=node.value)
            return self._make_store(node.target.id, self._expr(binop))
        if isinstance(node, ast.AnnAssign):
            if not isinstance(node.target, ast.Name):
                raise _Unvectorizable("annotated assignment to non-name")
            if node.value is None:
                return None
            return self._make_store(node.target.id, self._expr(node.value))
        if isinstance(node, ast.Return):
            return self._make_return()
        if isinstance(node, ast.If):
            return self._compile_if(node)
        if isinstance(node, ast.Expr):
            if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
                return None  # docstring
            vfn = self._expr(node.value)

            def run_expr(ctx, m, vfn=vfn):
                eff = m & ctx.active
                if eff.any():
                    vfn(ctx, eff)

            return run_expr
        if isinstance(node, ast.Pass):
            return None
        raise _Unvectorizable(f"statement {type(node).__name__} is not vectorizable")

    def _make_store(self, name, vfn):
        def run(ctx, m):
            eff = m & ctx.active
            if not eff.any():
                return
            value = vfn(ctx, eff)
            eff = eff & ctx.active
            _store(ctx, name, value, eff)

        return run

    def _make_return(self):
        # The return expression is never evaluated: whitelisted expressions
        # are pure, r/covered are untouched by it, and a fault there could
        # only freeze lanes this statement deactivates anyway.
        def run(ctx, m):
            eff = m & ctx.active
            if eff.any():
                ctx.active &= ~eff

        return run

    # -- expressions -----------------------------------------------------------

    def _expr(self, node) -> Callable:
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, bool) or isinstance(v, float):
                return lambda ctx, eff, v=v: v
            if isinstance(v, int):
                if not (_I64_MIN <= v <= _I64_MAX):
                    raise _Unvectorizable("integer constant beyond int64")
                return lambda ctx, eff, v=v: v
            raise _Unvectorizable(f"constant of type {type(v).__name__}")
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.local_names:
                return lambda ctx, eff, name=name: ctx.env[name]
            if name in self.ns:
                v = self.ns[name]
            else:
                v = getattr(builtins, name, _Unvectorizable)
                if v is _Unvectorizable:
                    raise _Unvectorizable(f"unresolvable global {name!r}")
            if isinstance(v, bool) or isinstance(v, float):
                return lambda ctx, eff, v=v: v
            if isinstance(v, int):
                if not (_I64_MIN <= v <= _I64_MAX):
                    raise _Unvectorizable("global integer beyond int64")
                return lambda ctx, eff, v=v: v
            raise _Unvectorizable(f"global {name!r} is not a numeric constant")
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.UnaryOp):
            vfn = self._expr(node.operand)
            if isinstance(node.op, ast.USub):
                return lambda ctx, eff: -_num(vfn(ctx, eff))
            if isinstance(node.op, ast.UAdd):
                return lambda ctx, eff: +_num(vfn(ctx, eff))
            if isinstance(node.op, ast.Invert):
                return lambda ctx, eff: ~_num(vfn(ctx, eff))
            if isinstance(node.op, ast.Not):
                return lambda ctx, eff: ~_truthy(vfn(ctx, eff), ctx.n)
            raise _Unvectorizable("unsupported unary operator")
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1 or type(node.ops[0]) not in _AST_OPS:
                raise _Unvectorizable("only single whitelisted comparisons")
            op = _AST_OPS[type(node.ops[0])]
            lf = self._expr(node.left)
            rf = self._expr(node.comparators[0])
            cmp = _CMP_FUNCS[op]

            def run_cmp(ctx, eff, lf=lf, rf=rf, cmp=cmp):
                out = cmp(lf(ctx, eff), rf(ctx, eff))
                return _as_bool_array(out, ctx.n)

            return run_cmp
        if isinstance(node, ast.BoolOp):
            is_and = isinstance(node.op, ast.And)
            fns = [self._expr(v) for v in node.values]

            def run_bool(ctx, eff, fns=fns, is_and=is_and):
                acc = fns[0](ctx, eff)
                for fn in fns[1:]:
                    c = _truthy(acc, ctx.n)
                    sub = (eff & c if is_and else eff & ~c) & ctx.active
                    nxt = fn(ctx, sub)
                    acc = np.where(c, nxt, acc) if is_and else np.where(c, acc, nxt)
                return acc

            return run_bool
        if isinstance(node, ast.IfExp):
            cf = self._expr(node.test)
            bf = self._expr(node.body)
            of = self._expr(node.orelse)

            def run_ifexp(ctx, eff, cf=cf, bf=bf, of=of):
                c = _truthy(cf(ctx, eff), ctx.n)
                live = eff & ctx.active
                bv = bf(ctx, live & c)
                ov = of(ctx, live & ~c)
                return np.where(c, bv, ov)

            return run_ifexp
        if isinstance(node, ast.Call):
            return self._call(node)
        raise _Unvectorizable(f"expression {type(node).__name__} is not vectorizable")

    def _call(self, node: ast.Call) -> Callable:
        if node.keywords or not isinstance(node.func, ast.Name):
            raise _Unvectorizable("only plain positional intrinsic calls")
        name = node.func.id
        if name in self.local_names:
            raise _Unvectorizable("call through a local name")
        obj = self.ns.get(name, getattr(builtins, name, None))
        impl = _intrinsics().get(obj) if obj is not None else None
        if impl is None:
            raise _Unvectorizable(f"call to non-intrinsic {name!r}")
        argfns = [self._expr(a) for a in node.args]

        def run_call(ctx, eff, impl=impl, argfns=argfns):
            return impl(ctx, eff, *[fn(ctx, eff) for fn in argfns])

        return run_call

    def _binop(self, node: ast.BinOp) -> Callable:
        kind = _BIN_OPS.get(type(node.op))
        if kind is None:
            raise _Unvectorizable(f"operator {type(node.op).__name__}")
        lf = self._expr(node.left)
        rf = self._expr(node.right)

        if kind in ("+", "-", "*"):
            import operator

            fn = {"+": operator.add, "-": operator.sub, "*": operator.mul}[kind]

            def run_arith(ctx, eff, lf=lf, rf=rf, fn=fn):
                return fn(_num(lf(ctx, eff)), _num(rf(ctx, eff)))

            return run_arith

        if kind in ("&", "|", "^"):
            import operator

            fn = {"&": operator.and_, "|": operator.or_, "^": operator.xor}[kind]

            def run_bits(ctx, eff, lf=lf, rf=rf, fn=fn):
                return fn(_num(lf(ctx, eff)), _num(rf(ctx, eff)))

            return run_bits

        if kind == "/":

            def run_div(ctx, eff, lf=lf, rf=rf):
                a = _num(lf(ctx, eff))
                b = _num(rf(ctx, eff))
                bad = eff & ctx.active & (b == 0)
                if isinstance(bad, np.ndarray) and bad.any():
                    ctx.active &= ~bad  # ZeroDivisionError lanes freeze
                return a / b

            return run_div

        if kind in ("//", "%"):

            def run_intdiv(ctx, eff, lf=lf, rf=rf, kind=kind):
                a = _num(lf(ctx, eff))
                b = _num(rf(ctx, eff))
                if _is_float_like(a) or _is_float_like(b):
                    # Python's float // and % have fmod-based corner cases
                    # (inf operands -> nan) that numpy's floor variants do
                    # not replicate; punt to rows mode.
                    raise _VectorBailout("float floor-division/modulo")
                bad = eff & ctx.active & (b == 0)
                if isinstance(bad, np.ndarray) and bad.any():
                    ctx.active &= ~bad
                return np.floor_divide(a, b) if kind == "//" else np.remainder(a, b)

            return run_intdiv

        # shifts
        def run_shift(ctx, eff, lf=lf, rf=rf, left=(kind == "<<")):
            a = _num(lf(ctx, eff))
            b = _num(rf(ctx, eff))
            live = eff & ctx.active
            if isinstance(b, np.ndarray):
                bad = live & (b < 0)
                if bad.any():
                    ctx.active &= ~bad  # negative count raises ValueError
                    live = live & ~bad
                if bool((live & (b > 63)).any()):
                    raise _VectorBailout("shift count beyond 63")
                b = np.clip(b, 0, 63)
            else:
                if b < 0:
                    if live.any():
                        ctx.active &= ~live
                    return _num(a) * 0
                if b > 63:
                    raise _VectorBailout("shift count beyond 63")
            if left:
                res = a << b
                if isinstance(res, np.ndarray):
                    if bool((live & ((res >> b) != a)).any()):
                        raise _VectorBailout("left shift overflows int64")
                elif not (_I64_MIN <= res <= _I64_MAX):
                    raise _VectorBailout("left shift overflows int64")
                return res
            return a >> b

        return run_shift

    # -- composition specs (tree sites) ---------------------------------------

    def _tree_accepted(self, test) -> bool:
        """The instrumentation pass's own ceiling check (tier agreement)."""
        try:
            lowering = _TreeLowering(InstrumentationPass({}), 0)
            _, tokens = lowering.lower(test, negated=False)
        except _LoweringOverflow:
            return False
        return len(tokens) <= MAX_TREE_TOKENS

    def _build_spec(self, node, negated):
        """Mirror of ``_Specializer._build_spec``: same shapes, same leaf order."""
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
            children = []
            lhs = node.left
            last = len(node.ops) - 1
            for index, (op_node, comparator) in enumerate(zip(node.ops, node.comparators)):
                op = _AST_OPS[type(op_node)]
                if negated:
                    op = _NEGATED[op]
                if index < last:
                    temp = self._temp()
                    pre = [(temp, comparator)]
                    rhs = ast.Name(id=temp, ctx=ast.Load())
                    next_lhs = ast.Name(id=temp, ctx=ast.Load())
                else:
                    pre = []
                    rhs = comparator
                    next_lhs = comparator  # unused
                children.append(_Cmp(op, lhs, rhs, pre))
                lhs = next_lhs
            return _Bool(not negated, children)
        return _Truth(node, negated)

    def _compile_spec(self, spec) -> Callable:
        """Closure ``(ctx, eff) -> (out, t, f, u)`` for one composition node."""
        if isinstance(spec, _Cmp):
            return self._compile_cmp_leaf(spec)
        if isinstance(spec, _Truth):
            return self._compile_truth_leaf(spec)
        if isinstance(spec, _Bool):
            return self._compile_bool(spec)
        if isinstance(spec, _Tern):
            return self._compile_ternary(spec)
        raise _Unvectorizable(f"unknown composition spec {spec!r}")

    def _compile_cmp_leaf(self, spec: _Cmp) -> Callable:
        lf = self._expr(spec.lhs)
        prefns = [(name, self._expr(value)) for name, value in spec.pre]
        rf = self._expr(spec.rhs)
        op = spec.op
        cmp = _CMP_FUNCS[op]
        eps = self.eps
        nan_t = 0.0 if op == "!=" else BIG_DISTANCE
        nan_f = BIG_DISTANCE if op == "!=" else 0.0

        def leaf(ctx, eff):
            # Probe argument order: lhs, then chain temporaries, then rhs.
            a = lf(ctx, eff)
            for name, fn in prefns:
                v = fn(ctx, eff)
                _store(ctx, name, v, eff & ctx.active)
            b = rf(ctx, eff)
            u = eff & ctx.active
            out = _as_bool_array(cmp(a, b), ctx.n)
            af = _f64(a, ctx.n)
            bf = _f64(b, ctx.n)
            nanm = (af != af) | (bf != bf)
            t, f = _pair_distances(op, af, bf, eps)
            t = np.where(nanm, nan_t, t)
            f = np.where(nanm, nan_f, f)
            return out, t, f, u

        return leaf

    def _compile_truth_leaf(self, spec: _Truth) -> Callable:
        vfn = self._expr(spec.value)
        neg = spec.negated
        eps = self.eps

        def leaf(ctx, eff):
            v = vfn(ctx, eff)
            u = eff & ctx.active
            tr = _truthy(v, ctx.n)
            out = ~tr if neg else tr
            if _is_bool_value(v):
                dt = np.where(tr, 0.0, eps)
                df = np.where(tr, eps, 0.0)
            else:
                conv = _f64(v, ctx.n)
                nanm = conv != conv
                dt = np.where(nanm, 0.0, np.where(conv != 0.0, 0.0, eps))
                df = np.where(nanm, BIG_DISTANCE, _squared_gap(conv, 0.0))
            if neg:
                return out, df, dt, u
            return out, dt, df, u

        return leaf

    def _compile_bool(self, spec: _Bool) -> Callable:
        child_fns = [self._compile_spec(c) for c in spec.children]
        is_and = spec.is_and

        def node(ctx, eff):
            n = ctx.n
            out = None
            t = f = u = None
            for index, cf in enumerate(child_fns):
                if index == 0:
                    m_i = eff & ctx.active
                else:
                    # Scalar short-circuit: later children run only on the
                    # surviving path (true lanes of an and, false of an or).
                    m_i = (eff & out if is_and else eff & ~out) & ctx.active
                if not m_i.any():
                    if index == 0:
                        z = np.zeros(n, dtype=np.float64)
                        return np.zeros(n, dtype=np.bool_), z, z, np.zeros(n, dtype=np.bool_)
                    break
                co, ct, cff, cu = cf(ctx, m_i)
                if index == 0:
                    out, t, f, u = co, ct, cff, cu
                    continue
                both = u & cu
                first = cu & ~u
                if is_and:
                    nt = t + ct
                    nf = np.where(cff < f, cff, f)
                else:
                    nt = np.where(ct < t, ct, t)
                    nf = f + cff
                t = np.where(both, nt, np.where(first, ct, t))
                f = np.where(both, nf, np.where(first, cff, f))
                u = u | cu
                out = (out & co) if is_and else (out | co)
            return out, t, f, u

        return node

    def _compile_ternary(self, spec: _Tern) -> Callable:
        cond_fn = self._compile_spec(spec.cond)
        body_fn = self._compile_spec(spec.body)
        orelse_fn = self._compile_spec(spec.orelse)

        def node(ctx, eff):
            co, ct, cf, cu = cond_fn(ctx, eff)
            live = eff & ctx.active
            bo, bt, bf, bu = body_fn(ctx, live & co)
            oo, ot, of_, ou = orelse_fn(ctx, live & ~co)
            cond = (ct, cf, cu)
            cond_swapped = (cf, ct, cu)
            # ``a if c else b`` composes as ``(c and a) or (not c and b)``;
            # the non-taken conjunct contributes nothing, so the fold is a
            # uniform per-lane formula selected by the condition outcome.
            rt = _vfold_pair(False, _vfold_pair(True, cond, (bt, bf, bu)),
                             _vfold_pair(True, cond_swapped, None))
            rf_ = _vfold_pair(False, _vfold_pair(True, cond, None),
                              _vfold_pair(True, cond_swapped, (ot, of_, ou)))
            t = np.where(co, rt[0], rf_[0])
            f = np.where(co, rt[1], rf_[1])
            u = np.where(co, rt[2], rf_[2])
            out = np.where(co, bo, oo)
            return out, t, f, u

        return node

    # -- probe sites -----------------------------------------------------------

    def _compile_if(self, node: ast.If) -> Callable:
        label = self.labels.get(id(node))
        body_fns = self._block(node.body)
        orelse_fns = self._block(node.orelse)
        if label is None:
            probe = self._compile_outcome_only(node.test)
        else:
            bits = (self.mask >> (label << 1)) & 3
            if bits == 3:
                # Def. 4.2(c): probe stripped, bare *lowered* test decides.
                probe = self._compile_outcome_only(node.test)
            else:
                probe = self._compile_probe(label, bits, node.test)

        def run(ctx, m):
            eff = m & ctx.active
            if not eff.any():
                return
            out = probe(ctx, eff)
            eff = eff & ctx.active
            m_t = eff & out
            m_f = eff & ~out
            if m_t.any():
                for fn in body_fns:
                    fn(ctx, m_t)
            if m_f.any():
                for fn in orelse_fns:
                    fn(ctx, m_f)

        return run

    def _compile_outcome_only(self, test) -> Callable:
        """The lowered branch outcome with every probe elided (bits == 3)."""
        simple = as_simple_comparison(test)
        if simple is not None:
            op, lhs, rhs, _negated = simple  # op already negation-folded
            lf = self._expr(lhs)
            rf = self._expr(rhs)
            cmp = _CMP_FUNCS[op]
            return lambda ctx, eff: _as_bool_array(cmp(lf(ctx, eff), rf(ctx, eff)), ctx.n)
        stripped, _ = strip_not(test)
        if isinstance(stripped, (ast.BoolOp, ast.IfExp)) or is_chain(stripped):
            if self._tree_accepted(test):
                spec_fn = self._compile_spec(self._build_spec(test, False))
                return lambda ctx, eff: spec_fn(ctx, eff)[0]
        # Truth fallback sites branch on the original value's truthiness.
        vfn = self._expr(test)
        return lambda ctx, eff: _truthy(vfn(ctx, eff), ctx.n)

    def _compile_probe(self, label, bits, test) -> Callable:
        simple = as_simple_comparison(test)
        if simple is not None:
            op, lhs, rhs, _negated = simple
            return self._compile_simple_site(label, bits, op, lhs, rhs)
        stripped, _ = strip_not(test)
        if isinstance(stripped, (ast.BoolOp, ast.IfExp)) or is_chain(stripped):
            if self._tree_accepted(test):
                return self._compile_tree_site(label, bits, test)
        return self._compile_truth_site(label, bits, test)

    def _compile_simple_site(self, label, bits, op, lhs, rhs) -> Callable:
        lf = self._expr(lhs)
        rf = self._expr(rhs)
        cmp = _CMP_FUNCS[op]
        eps = self.eps
        if bits != 0:
            op_eff = op if bits == 1 else _NEGATED[op]
            if bits == 1:
                nan_r = 0.0 if op == "!=" else BIG_DISTANCE
            else:
                nan_r = BIG_DISTANCE if op == "!=" else 0.0

        def probe(ctx, eff):
            a = lf(ctx, eff)
            b = rf(ctx, eff)
            eff = eff & ctx.active
            out = _as_bool_array(cmp(a, b), ctx.n)
            # Covered bit first, like FastRuntime.test (before any distance).
            _update_cov(ctx, label, out, eff)
            if bits == 0:
                ctx.r = np.where(eff, 0.0, ctx.r)
            else:
                af = _f64(a, ctx.n)
                bf = _f64(b, ctx.n)
                nanm = (af != af) | (bf != bf)
                dist = _branch_distance(op_eff, af, bf, eps)
                ctx.r = np.where(eff, np.where(nanm, nan_r, dist), ctx.r)
            return out

        return probe

    def _compile_truth_site(self, label, bits, test) -> Callable:
        vfn = self._expr(test)
        eps = self.eps

        def probe(ctx, eff):
            v = vfn(ctx, eff)
            eff = eff & ctx.active
            out = _truthy(v, ctx.n)
            if bits == 0:
                ctx.r = np.where(eff, 0.0, ctx.r)
            elif _is_bool_value(v):
                if bits == 1:
                    dist = np.where(out, 0.0, eps)
                else:
                    dist = np.where(out, eps, 0.0)
                ctx.r = np.where(eff, dist, ctx.r)
            else:
                conv = _f64(v, ctx.n)
                nanm = conv != conv
                if bits == 1:
                    dist = np.where(conv != 0.0, 0.0, eps)
                    nan_r = 0.0
                else:
                    dist = _squared_gap(conv, 0.0)
                    nan_r = BIG_DISTANCE
                ctx.r = np.where(eff, np.where(nanm, nan_r, dist), ctx.r)
            _update_cov(ctx, label, out, eff)
            return out

        return probe

    def _compile_tree_site(self, label, bits, test) -> Callable:
        spec_fn = self._compile_spec(self._build_spec(test, False))

        def probe(ctx, eff):
            out, t, f, u = spec_fn(ctx, eff)
            eff = eff & ctx.active
            _update_cov(ctx, label, out, eff)
            if bits == 0:
                ctx.r = np.where(eff & u, 0.0, ctx.r)
            else:
                steer = t if bits == 1 else f
                ctx.r = np.where(eff & u, steer, ctx.r)
            return out

        return probe


def _is_float_like(v) -> bool:
    if isinstance(v, np.ndarray):
        return v.dtype == np.float64
    return isinstance(v, float)


# -- plan construction and the module-level kernel cache ---------------------------------


class _VectorPlan:
    """Compiled lane-masked closures for one (source, mask, epsilon) triple."""

    __slots__ = ("params", "stmts")

    def __init__(self, params, stmts):
        self.params = params
        self.stmts = stmts


def _collect_assigned(func_node) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(func_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _build_plan(source, function_name, start_label, saturated_mask, epsilon, namespace):
    """Compile one unit into a vector plan, or raise :class:`_Unvectorizable`."""
    tree = ast.parse(textwrap.dedent(source))
    func_node = None
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == function_name:
            func_node = stmt
            break
    if func_node is None:
        raise _Unvectorizable(f"function {function_name!r} not found")
    func_node.decorator_list = []
    labels, _ = assign_labels(func_node, start=start_label)
    args = func_node.args
    if args.vararg or args.kwarg or args.kwonlyargs:
        raise _Unvectorizable("only plain positional parameters")
    params = [p.arg for p in (args.posonlyargs + args.args)]
    compiler = _VectorCompiler(labels, saturated_mask, epsilon, namespace)
    compiler.local_names = set(params) | _collect_assigned(func_node)
    stmts = compiler._block(func_node.body)
    return _VectorPlan(params, stmts)


#: Module-level batched-kernel plan cache, mirroring the scalar
#: specialization cache: (source sha256, function name, start label, mask,
#: epsilon) -> _VectorPlan | None (None = compiles to rows mode).
_BATCH_CACHE: dict[tuple, Optional[_VectorPlan]] = {}
_BATCH_CACHE_LOCK = threading.Lock()
_BATCH_CACHE_MAX = 1024
_BATCH_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _plan_for(source, function_name, start_label, saturated_mask, epsilon, namespace):
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    key = (digest, function_name, start_label, saturated_mask, epsilon)
    with _BATCH_CACHE_LOCK:
        if key in _BATCH_CACHE:
            _BATCH_CACHE_STATS["hits"] += 1
            return _BATCH_CACHE[key]
        _BATCH_CACHE_STATS["misses"] += 1
    try:
        plan = _build_plan(
            source, function_name, start_label, saturated_mask, epsilon, namespace
        )
    except _Unvectorizable:
        plan = None
    with _BATCH_CACHE_LOCK:
        while len(_BATCH_CACHE) >= _BATCH_CACHE_MAX:
            _BATCH_CACHE.pop(next(iter(_BATCH_CACHE)))
            _BATCH_CACHE_STATS["evictions"] += 1
        _BATCH_CACHE[key] = plan
    return plan


def batched_cache_info() -> dict[str, int]:
    """Size and hit/miss/evict statistics of the batched-kernel cache."""
    with _BATCH_CACHE_LOCK:
        return {
            "entries": len(_BATCH_CACHE),
            "max_entries": _BATCH_CACHE_MAX,
            **_BATCH_CACHE_STATS,
        }


def clear_batched_cache() -> None:
    """Drop every cached batched-kernel plan and reset its statistics."""
    with _BATCH_CACHE_LOCK:
        _BATCH_CACHE.clear()
        for key in _BATCH_CACHE_STATS:
            _BATCH_CACHE_STATS[key] = 0


class BatchKernel:
    """One batched evaluator bound to a program's specialized variant.

    ``kernel(X)`` takes an ``(N, arity)`` float64 array and returns
    ``(r, covered)``: the raw ``(N,)`` penalty vector (callers clamp
    non-finite values exactly like the scalar tier) and the union of
    covered-branch bits over all rows.  ``mode`` is ``"vector"`` or
    ``"rows"``; a vector kernel that hits a non-replicable condition at run
    time demotes itself to rows **stickily** and re-evaluates the batch, so a
    result is always produced and always bit-identical to the scalar tier.
    """

    __slots__ = ("variant", "plan", "mode", "saturated_mask", "epsilon")

    def __init__(self, variant, plan: Optional[_VectorPlan]):
        self.variant = variant
        self.plan = plan
        self.mode = "vector" if plan is not None else "rows"
        self.saturated_mask = variant.saturated_mask
        self.epsilon = variant.epsilon

    def __call__(self, X):
        if self.mode == "vector":
            try:
                return self._run_vector(X)
            except Exception:
                # _VectorBailout, or any latent lane-parallel surprise: the
                # rows path is always correct, so demote permanently.
                self.mode = "rows"
        return self._run_rows(X)

    def _run_vector(self, X):
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        n = X.shape[0]
        params = self.plan.params
        if X.shape[1] != len(params):
            raise ValueError(f"expected {len(params)} columns, got {X.shape[1]}")
        env = {p: np.ascontiguousarray(X[:, i]) for i, p in enumerate(params)}
        ctx = _Ctx(env, np.ones(n, dtype=np.bool_), np.full(n, 1.0), n)
        everyone = np.ones(n, dtype=np.bool_)
        with np.errstate(all="ignore"):
            for fn in self.plan.stmts:
                fn(ctx, everyone)
        return ctx.r, ctx.cov

    def _run_rows(self, X):
        variant = self.variant
        namespace = variant.namespace
        entry = variant.entry
        from repro.instrument.specialize import R_NAME as _r_name

        rows = np.atleast_2d(np.asarray(X, dtype=np.float64)).tolist()
        out = np.empty(len(rows), dtype=np.float64)
        # Reset the covered bytearray once: bits accumulate across rows,
        # which is exactly the union summary the batched contract asks for.
        variant.covered[:] = bytes(2 * variant.n_conditionals)
        for i, row in enumerate(rows):
            namespace[_r_name] = 1.0
            try:
                entry(*row)
            except _SWALLOWED:
                pass
            out[i] = namespace[_r_name]
        return out, variant.covered_mask()


def build_batch_kernel(program, saturated_mask: int, epsilon: float = DEFAULT_EPSILON):
    """Build (or fetch from cache) the batched kernel for one program/mask.

    The scalar :class:`SpecializedVariant` is always built first: it is the
    rows-mode body, the bailout target, and the source of the namespace whose
    constants the vector plan embeds.  Vector compilation is attempted only
    for single-unit programs (helper calls cannot be lane-masked) and
    silently degrades to rows mode on any whitelist miss.
    """
    variant = program.specialize(saturated_mask, epsilon)
    plan = None
    if len(program.units) == 1:
        source, function_name, start_label = program.units[0]
        plan = _plan_for(
            source,
            function_name,
            start_label,
            variant.saturated_mask,
            variant.epsilon,
            variant.namespace,
        )
    return BatchKernel(variant, plan)
