"""Backend-agnostic emitter: specialized units -> typed native IR.

The emitter consumes exactly what the scalar specializer produces for no
concrete mask -- the *mask-generic*
:func:`repro.instrument.specialize.specialize_source` ASTs, where every probe
site reads its two saturation bits at run time (:class:`SatRef`), dispatches
Def. 4.2 on them and always writes its covered bit -- and lowers them into a
small typed IR with explicit ``float64``/``int64``/``bool`` semantics, so one
kernel serves every mask of a program.  Everything CPython does implicitly
is spelled out here so a C backend can reproduce ``r`` bit-for-bit:

* fdlibm word intrinsics become uint64 bit-casts and masks,
* int64 ``+ - * <<`` wrap, with overflow *bails* where Python promotes to
  big ints (``+ - *`` results carry an overflow flag, see below),
* swallowed Python exceptions (``ZeroDivisionError``, ``OverflowError``,
  ``ValueError``) become *freeze* statements that end the row keeping the
  current ``r`` and covered bits -- exactly what the scalar tier's
  ``except (ArithmeticError, ValueError, OverflowError)`` does,
* constructs whose native semantics could diverge from CPython (unknown
  calls, live :data:`OPAQUE_CALLS` values, huge ints outside ``& C``, ...)
  become *bail* statements: the row unwinds and the runtime re-evaluates it
  on the scalar specialized variant.

Two rules keep rows that only *compute* such values native:

* **Huge ints.**  ``int(x)`` and ``math.floor/ceil/trunc(x)`` of a double
  carry the low 64 bits of the exact integer (two's complement) and a flag
  set when it lies beyond int64.  So do int ``+ - *``: the wrapped result
  is the exact low 64 bits of the Python result, and the flag is set when
  the operation overflowed or an operand was flagged.  Masking with
  ``& C``, ``0 <= C < 2**63``, is exact from those bits and clears the
  flag; every other use (comparison, ``float()``, shifts, ``//``, ``%``,
  ``abs``, a return or call argument) first bails when the flag is set.
* **Dead values are sliced away** (:func:`slice_dead_values`).  After
  lowering, a backward liveness pass deletes every computation whose value
  reaches no probe, conditional test, ``r`` or covered-bit write, loop
  condition, call into a program unit, or return value some caller uses (a
  fixpoint over the call graph; the entry's return value is dead).  IR
  values cannot raise -- each Python exception is an explicit freeze or
  bail guard, and guards are kept -- so a row still freezes exactly where
  the scalar tier swallows an exception.  A dead call into an adopted
  helper keeps only what can freeze or bail, and a dead
  :data:`OPAQUE_CALLS` value disappears (a live one bails).

Typing is a flow-insensitive join over ``{none < bool < i64 < f64}`` run to
a global fixpoint across all units (helper parameter/return types are joined
from call sites).  The specializer's dynamic type guards (``x.__class__ is
float``, ``isinstance(v, (int, float))``, the ``float()`` conversion
``try``) are folded statically against those types.  Bail sites are numbered
in the final IR; a bailing row reports its site, whose reason text the
kernel exports.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from dataclasses import dataclass, field, replace

from repro.fdlibm import bessel
from repro.instrument.ast_pass import parse
from repro.instrument.native.cache import NativeUnavailable
from repro.instrument.specialize import COV_NAME, R_NAME, SAT_NAME, specialize_source

# -- type lattice ------------------------------------------------------------------------

T_NONE = 0  # never assigned (reads bail)
T_BOOL = 1
T_I64 = 2
T_F64 = 3

_TYPE_NAMES = {T_NONE: "none", T_BOOL: "bool", T_I64: "i64", T_F64: "f64"}

#: Largest int64 magnitude exactly representable as a double; int operands
#: beyond it cannot take part in float conversions without a bail.
EXACT_I64 = 1 << 53

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: Int ``+ - *``: the C operator and the prelude's overflow predicate.
_WRAPPING_OPS = {
    ast.Add: ("+", "sp_add_ovf"),
    ast.Sub: ("-", "sp_sub_ovf"),
    ast.Mult: ("*", "sp_mul_ovf"),
}

#: Bail reason of a variable that holds huge ints from several sources.
_WIDE_MIXED = "int beyond int64"


def _join(a: int, b: int) -> int:
    return a if a >= b else b


def _is_mask(expr) -> bool:
    """An int64 constant ``C`` with ``0 <= C < 2**63``."""
    return isinstance(expr, Const) and expr.type == T_I64 and expr.value >= 0


# -- IR expressions ----------------------------------------------------------------------


@dataclass
class Const:
    type: int
    value: object


@dataclass
class VarRef:
    type: int
    name: str
    is_r: bool = False


@dataclass
class Bin:
    """A binary op; rendering is (type, op)-directed (int ops wrap)."""

    type: int
    op: str
    left: object
    right: object


@dataclass
class Un:
    type: int
    op: str  # "-" | "~" | "!"
    operand: object


@dataclass
class Cast:
    type: int
    operand: object


@dataclass
class CallE:
    """A pure call (libm function or bit-cast helper); no status writes."""

    type: int
    fn: str
    args: list


@dataclass
class Sel:
    """A lazy select (C ternary); operands must be effect-free."""

    type: int
    cond: object
    a: object
    b: object


@dataclass
class ArrRef:
    type: int
    array: str
    index: object


@dataclass
class Opaque:
    """The value of ``float(f(x))`` for an :data:`OPAQUE_CALLS` callable ``f``.

    No backend renders it: :func:`slice_dead_values` deletes it when the
    value is dead and turns a live one into a bail."""

    type: int
    fn: str


@dataclass
class SatRef:
    """The two saturation-mask bits (0-3) of conditional ``label``, read
    from the mask words a kernel call is given."""

    type: int
    label: int


# -- IR statements -----------------------------------------------------------------------


@dataclass
class SAssign:
    var: VarRef
    value: object


@dataclass
class SSetR:
    value: object


@dataclass
class SCov:
    index: object


@dataclass
class SIf:
    cond: object
    body: list
    orelse: list


@dataclass
class SLoop:
    body: list


@dataclass
class SBreak:
    pass


@dataclass
class SContinue:
    pass


@dataclass
class SReturn:
    values: list


@dataclass
class SFreeze:
    reason: str


@dataclass
class SBail:
    reason: str
    site: int = -1  # index into ProgramIR.bail_reasons, set once sliced


@dataclass
class SCall:
    """A unit-to-unit call; the backend adds the status check after it."""

    fn: str
    args: list
    outs: list


@dataclass
class FnIR:
    py_name: str
    c_name: str
    params: list  # of (c_name, type)
    ret_types: list
    body: list
    local_vars: list  # of (c_name, type), params excluded
    is_entry: bool = False
    adopted: bool = False  # uninstrumented helper, not a program unit


@dataclass
class ProgramIR:
    functions: list
    entry: FnIR
    arity: int
    n_conditionals: int
    n_words: int
    arrays: dict  # c_name -> (elem_type, tuple_of_values)
    bail_reasons: list = field(default_factory=list)  # by bail site
    freeze_sites: int = 0

    @property
    def bail_sites(self) -> int:
        return len(self.bail_reasons)


def covered_words(n_conditionals: int) -> int:
    """64-bit words of a kernel's covered-branch bitset (two bits per
    conditional, at least one word)."""
    return max(1, (2 * n_conditionals + 63) // 64)


# -- emitter -----------------------------------------------------------------------------


class _StmtBail(Exception):
    """A single statement cannot be emitted; it becomes a runtime bail."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


_MISS = object()

#: Scalar types of a global value (or of an attribute of one) that the
#: emitter folds into a kernel constant.
FOLD_TYPES = (bool, int, float)

#: Callables whose ``float(f(x))`` value a kernel may drop when it is dead:
#: each is a C library call, which returns a value and cannot raise.  A
#: live value still bails.  The list is part of every kernel digest.
OPAQUE_CALLS = (
    "repro.fdlibm.bessel.j0",
    "repro.fdlibm.bessel.j1",
    "repro.fdlibm.bessel.y0",
    "repro.fdlibm.bessel.y1",
)


#: ``id`` of each :data:`OPAQUE_CALLS` callable -> its entry.
_OPAQUE_IDS = {id(getattr(bessel, name.rpartition(".")[2])): name
               for name in OPAQUE_CALLS}


def opaque_name(value):
    """The :data:`OPAQUE_CALLS` entry that ``value`` is, or ``None``."""
    return _OPAQUE_IDS.get(id(value))


def global_value(namespace: dict, name: str, attr=None):
    """What a body reads as the global ``name`` -- or as ``name.attr`` when
    ``attr`` is given -- in ``namespace``, its module globals; ``_MISS``
    when unbound.  The emitter reads every global it bakes into a kernel
    through here."""
    value = namespace.get(name, _MISS)
    if attr is not None and value is not _MISS:
        value = getattr(value, attr, _MISS)
    return value


def baked_form(value):
    """Text of what the emitter bakes into a kernel from a global value it
    reads, or ``None`` when it bakes nothing from it.

    A :data:`FOLD_TYPES` scalar folds to its value, a tuple of such scalars
    becomes a constant array (any other tuple still folds its ``len``), a
    builtin (``math`` intrinsics) is called by name, a plain function is
    called by identity and an :data:`OPAQUE_CALLS` callable may be sliced
    away.  Adopted helper *bodies* are emitted from source,
    which :func:`repro.instrument.native.kernel.helper_digest` hashes apart.
    Every form is deterministic text, so a kernel digest over them is stable
    across processes."""
    kind = type(value)
    if kind in FOLD_TYPES:
        return f"{kind.__name__} {value!r}"
    if isinstance(value, tuple):
        if all(type(v) in FOLD_TYPES for v in value):
            return f"{kind.__name__} {value!r}"
        return f"{kind.__name__} len {len(value)}"
    if inspect.isbuiltin(value) or inspect.isfunction(value):
        module = getattr(value, "__module__", None)
        return f"{kind.__name__} {module}.{value.__qualname__}"
    opaque = opaque_name(value)
    if opaque is not None:
        return f"opaque {opaque}"
    return None


_CONVERT_ERROR_NAMES = {"TypeError", "ValueError", "OverflowError"}

_BITS_INTRINSICS = {
    "high_word",
    "low_word",
    "from_words",
    "set_high_word",
    "set_low_word",
    "abs_high_word",
    "copysign_bit",
    "fabs",
    "double_to_bits",
    "bits_to_double",
}

#: 1-arg libm functions safe under the generic CPython ``m_math_1`` wrapper:
#: same libm as CPython plus freeze on (inf from finite) / (nan from non-nan),
#: which covers every OverflowError/ValueError CPython raises for them.
_LIBM_1 = {
    "sin", "cos", "tan", "asin", "acos", "atan",
    "sinh", "cosh", "tanh", "exp", "expm1", "log1p",
    "sqrt", "log", "log2", "log10", "fabs", "erf", "erfc",
}


@dataclass
class _FnInfo:
    py_name: str
    c_name: str
    params: list  # arg names in order
    defaults: dict  # arg name -> constant default
    assigned: set  # names stored anywhere in the unit
    returns_value: bool  # some ``return <value>`` statement in the body
    tree: ast.FunctionDef
    namespace: dict  # globals the body runs against, leading imports bound
    adopted: bool = False  # uninstrumented helper, not a program unit
    imports: list = field(default_factory=list)  # leading ``import`` nodes
    var_types: dict = field(default_factory=dict)
    var_maybool: set = field(default_factory=set)
    var_wide: dict = field(default_factory=dict)  # name -> bail reason
    param_maybool: set = field(default_factory=set)
    ret_arity: int = -1  # -1 unknown, 0 none, n values
    ret_types: list = field(default_factory=list)
    ret_maybool: list = field(default_factory=list)
    is_entry: bool = False


class _AssignedNames(ast.NodeVisitor):
    def __init__(self):
        self.names = set()
        self.returns_value = False

    def visit_Return(self, node):
        value = node.value
        if value is not None and not (
            isinstance(value, ast.Constant) and value.value is None
        ):
            self.returns_value = True
        self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self.names.add(node.id)

    def visit_NamedExpr(self, node):
        self.names.add(node.target.id)
        self.visit(node.value)

    def visit_FunctionDef(self, node):  # nested defs keep their own scope
        self.names.add(node.name)


def _sanitize(name: str) -> str:
    return "v_" + "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _wide_flag(name: str) -> str:
    """C name of the flag set while variable ``name`` holds an int beyond
    int64 (see :class:`_Wide`)."""
    return "w" + _sanitize(name)[1:]


@dataclass
class _Wide:
    """An int that may lie beyond int64 (converted from a double, or an int
    ``+ - *`` result): ``low`` holds the low 64 bits of the exact value
    (two's complement) and the bool ``flag`` is set when it may not fit.
    Only ``& C`` with ``0 <= C < 2**63`` is exact from ``low``; every other
    use settles the value first, bailing with ``reason`` when ``flag`` is
    set."""

    low: VarRef
    flag: VarRef
    reason: str


def _fn_info(func: ast.FunctionDef, py_name: str, c_name: str,
             namespace: dict, **flags) -> _FnInfo:
    scan = _AssignedNames()
    for stmt in func.body:
        scan.visit(stmt)
    # ``import math`` at the top of a body binds a module already loaded:
    # it cannot raise, and reads through it resolve like global ones.
    imports, bound = [], {}
    for stmt in func.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring
        if not isinstance(stmt, ast.Import) or not all(
            "." not in alias.name and alias.name in sys.modules
            for alias in stmt.names
        ):
            break
        imports.append(stmt)
        for alias in stmt.names:
            bound[alias.asname or alias.name] = sys.modules[alias.name]
    arguments = func.args.args
    params = [a.arg for a in arguments]
    defaults = {}
    for arg, default in zip(arguments[len(arguments) - len(func.args.defaults):],
                            func.args.defaults):
        try:
            defaults[arg.arg] = ast.literal_eval(default)
        except (ValueError, TypeError):
            pass
    return _FnInfo(
        py_name=py_name,
        c_name=c_name,
        params=params,
        defaults=defaults,
        assigned=scan.names | set(params),
        returns_value=scan.returns_value,
        tree=func,
        namespace={**namespace, **bound} if bound else namespace,
        imports=imports,
        **flags,
    )


class ProgramEmitter:
    """Emits one instrumented program (all units), mask-generic."""

    MAX_PASSES = 12

    def __init__(self, units, entry_name, arity, n_conditionals, namespace):
        # Program units run against the program namespace, exactly as
        # ``instrument()`` execs them; each adopted helper runs against its
        # own module globals.  ``self.namespace`` follows the unit being
        # emitted.
        self.namespace = namespace
        self.arity = arity
        self.n_conditionals = n_conditionals
        self.entry_name = entry_name
        self.arrays: dict = {}
        self._array_names: dict = {}
        self.infos: dict = {}  # unit name -> _FnInfo
        self._helpers: dict = {}  # helper function object -> _FnInfo | None
        self.order: list = []  # every _FnInfo in emission order
        for index, (source, name, start_label) in enumerate(units):
            tree, _ = specialize_source(
                source,
                function_name=name,
                start_label=start_label,
                saturated_mask=None,
            )
            func = next(
                s for s in tree.body
                if isinstance(s, ast.FunctionDef) and s.name == name
            )
            info = _fn_info(func, name, f"sp_u{index}_{name}", namespace,
                            is_entry=(name == entry_name))
            if info.is_entry:
                for p in info.params:
                    info.var_types[p] = T_F64
            self.infos[name] = info
            self.order.append(info)
        if entry_name not in self.infos:
            raise NativeUnavailable(f"entry unit {entry_name!r} not found")

    # -- driver ---------------------------------------------------------------------

    def emit(self) -> ProgramIR:
        functions = []
        for _ in range(self.MAX_PASSES):
            self._changed = False
            # Helpers adopted mid-pass are appended to ``self.order`` and
            # emitted in the same pass.
            functions = [self._emit_unit(info) for info in self.order]
            if not self._changed:
                break
        if self._changed:
            # A stable pass is required: caller argument conversions and
            # callee parameter declarations must agree on every type.
            raise NativeUnavailable("type inference did not converge")
        functions = slice_dead_values(functions)
        entry_fn = next(f for f in functions if f.is_entry)
        self._check_entry_viable(entry_fn)
        bail_reasons, freeze_sites = _number_sites(functions)
        return ProgramIR(
            functions=functions,
            entry=entry_fn,
            arity=self.arity,
            n_conditionals=self.n_conditionals,
            n_words=covered_words(self.n_conditionals),
            arrays=dict(self.arrays),
            bail_reasons=bail_reasons,
            freeze_sites=freeze_sites,
        )

    def _check_entry_viable(self, fn: FnIR) -> None:
        """An unconditional bail before any observable work degrades the
        whole program: every row would fall back to the scalar variant."""
        for stmt in fn.body:
            if isinstance(stmt, SBail):
                raise NativeUnavailable(
                    f"entry bails unconditionally: {stmt.reason}"
                )
            if isinstance(stmt, SAssign):
                continue
            break

    # -- per-unit emission ----------------------------------------------------------

    def _emit_unit(self, info: _FnInfo) -> FnIR:
        self.fn = info
        self.namespace = info.namespace
        self._temp_counter = 0
        self._temps: list = []
        self._loop_depth = 0
        body = self._emit_block(info.tree.body)
        if info.ret_arity == -1 and not info.returns_value:
            # Only a function with no ``return <value>`` at all is void; one
            # whose value returns all bailed this pass (operand types not
            # known yet) stays unknown until a later pass types them.
            info.ret_arity = 0
            self._changed = True
        elif info.ret_arity > 0 and not info.is_entry:
            # A fall-off-the-end path returns None in Python, which the
            # caller would crash on (not a swallowed exception); guard the
            # native path with a bail.  Dead code when every path returns.
            body.append(SBail("helper fell off the end"))
        params = []
        for p in info.params:
            t = info.var_types.get(p, T_NONE)
            if t == T_NONE:
                t = T_F64  # uncalled helper: type params like the entry
                info.var_types[p] = t
            params.append((_sanitize(p), t))
        local_vars = [
            (_sanitize(n), t)
            for n, t in sorted(info.var_types.items())
            if n not in info.params and t != T_NONE
        ]
        local_vars.extend((_wide_flag(n), T_BOOL) for n in sorted(info.var_wide))
        local_vars.extend(self._temps)
        return FnIR(
            py_name=info.py_name,
            c_name=info.c_name,
            params=params,
            ret_types=list(info.ret_types),
            body=body,
            local_vars=local_vars,
            is_entry=info.is_entry,
            adopted=info.adopted,
        )

    # -- blocks and statements ------------------------------------------------------

    def _emit_block(self, stmts) -> list:
        prev, self._block = getattr(self, "_block", None), []
        out = self._block
        for stmt in stmts:
            try:
                self._stmt(stmt)
            except _StmtBail as exc:
                # Emitted prefix temps/guards are a sound prefix of Python's
                # left-to-right evaluation; the bail unwinds before any
                # further observable effect.
                out.append(SBail(exc.reason))
        self._block = prev
        return out

    def _push(self, stmt) -> None:
        self._block.append(stmt)

    def _capture(self, fn) -> list:
        prev, self._block = self._block, []
        try:
            fn()
            return self._block
        finally:
            self._block = prev

    def _capture_block(self, stmts) -> list:
        return self._emit_block(stmts)

    def _stmt(self, node) -> None:
        if isinstance(node, ast.Assign):
            return self._stmt_assign(node)
        if isinstance(node, ast.AugAssign):
            target = node.target
            if not isinstance(target, ast.Name):
                raise _StmtBail("augmented assign to non-name")
            value = ast.BinOp(left=ast.Name(id=target.id, ctx=ast.Load()),
                              op=node.op, right=node.value)
            return self._stmt_assign(
                ast.Assign(targets=[ast.Name(id=target.id, ctx=ast.Store())],
                           value=value))
        if isinstance(node, ast.If):
            return self._stmt_if(node)
        if isinstance(node, ast.While):
            return self._stmt_while(node)
        if isinstance(node, ast.Return):
            return self._stmt_return(node)
        if isinstance(node, ast.Break):
            if self._loop_depth <= 0:
                raise _StmtBail("break outside loop")
            return self._push(SBreak())
        if isinstance(node, ast.Continue):
            if self._loop_depth <= 0:
                raise _StmtBail("continue outside loop")
            return self._push(SContinue())
        if isinstance(node, ast.Global):
            return None
        if isinstance(node, ast.Import) and any(node is i for i in self.fn.imports):
            return None
        if isinstance(node, ast.Pass):
            return None
        if isinstance(node, ast.Expr):
            if isinstance(node.value, ast.Constant):
                return None  # docstrings
            self._expr(node.value)  # evaluate for guard parity, discard
            return None
        if isinstance(node, ast.Try):
            return self._stmt_try(node)
        raise _StmtBail(f"unsupported statement {type(node).__name__}")

    def _stmt_try(self, node: ast.Try) -> None:
        """Only the specializer's conversion guard is supported; for the
        numeric types this IR models, ``float()`` cannot raise, so the body
        and the ``else`` run unconditionally."""
        ok = (
            len(node.handlers) == 1
            and not node.finalbody
            and node.handlers[0].name is None
            and len(node.handlers[0].body) == 1
            and isinstance(node.handlers[0].body[0], ast.Pass)
            and isinstance(node.handlers[0].type, ast.Tuple)
            and {
                e.id for e in node.handlers[0].type.elts
                if isinstance(e, ast.Name)
            } == _CONVERT_ERROR_NAMES
        )
        if not ok:
            raise _StmtBail("unsupported try statement")
        for stmt in node.body:
            self._stmt(stmt)
        for stmt in node.orelse:
            self._stmt(stmt)

    def _stmt_assign(self, node: ast.Assign) -> None:
        # COV_NAME subscript store: the covered-bit write.
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Subscript)
        ):
            target = node.targets[0]
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == COV_NAME
            ):
                index = self._as_i64(self._expr(target.slice))
                self._push(SCov(index))
                return
            raise _StmtBail("subscript store")
        targets = []
        for t in node.targets:
            if isinstance(t, ast.Name):
                targets.append(t.id)
            elif isinstance(t, ast.Tuple):
                targets.append(t)
            else:
                raise _StmtBail("unsupported assignment target")
        if len(targets) == 1 and isinstance(targets[0], ast.Tuple):
            return self._stmt_tuple_assign(targets[0], node.value)
        if any(isinstance(t, ast.Tuple) for t in targets):
            raise _StmtBail("chained tuple assignment")
        value = self._wide_expr(node.value)
        if isinstance(value, _Wide):
            if len(targets) == 1 and targets[0] != R_NAME:
                return self._store_wide(targets[0], value)
            value = self._settle(value)
        maybool = self._maybool(value)
        if len(targets) > 1:
            value = self._materialize(value)
        for name in targets:
            self._store(name, value, maybool=maybool)

    def _stmt_tuple_assign(self, target: ast.Tuple, value) -> None:
        names = []
        for elt in target.elts:
            if not isinstance(elt, ast.Name):
                raise _StmtBail("nested tuple unpack")
            names.append(elt.id)
        if isinstance(value, ast.Call):
            call = self._unit_call(value)
            if call is not None:
                outs, maybools = call
                if len(outs) != len(names):
                    raise _StmtBail("tuple unpack arity mismatch")
                for name, out, mb in zip(names, outs, maybools):
                    self._store(name, out, maybool=mb)
                return
        if isinstance(value, ast.Tuple):
            if len(value.elts) != len(names):
                raise _StmtBail("tuple unpack arity mismatch")
            # Python evaluates the whole right-hand side before the first
            # store, so ``a, b = b, a`` must read ``a`` before it changes:
            # every non-constant element is copied into a fresh temp.
            vals, maybools = [], []
            for elt in value.elts:
                v = self._expr(elt)
                maybools.append(self._maybool(v))
                vals.append(self._snapshot(v))
            for name, v, mb in zip(names, vals, maybools):
                self._store(name, v, maybool=mb)
            return
        raise _StmtBail("unsupported tuple assignment")

    def _stmt_if(self, node: ast.If) -> None:
        fold = self._fold_static_test(node.test)
        if fold is not None:
            for stmt in node.body if fold else node.orelse:
                self._stmt(stmt)
            return
        cond = self._emit_test(node.test)
        body = self._capture_block(node.body)
        orelse = self._capture_block(node.orelse)
        self._push(SIf(cond, body, orelse))

    def _stmt_while(self, node: ast.While) -> None:
        const = self._try_const(node.test)
        flag = None
        if node.orelse and not (const is not _MISS and bool(const)):
            flag = self._fresh(T_BOOL)
            self._push(SAssign(flag, Const(T_BOOL, False)))
        self._loop_depth += 1
        try:
            def build():
                if const is _MISS:
                    cond = self._emit_test(node.test)
                elif bool(const):
                    cond = None
                else:
                    cond = Const(T_BOOL, False)
                if cond is not None:
                    exit_body = [SBreak()]
                    if flag is not None:
                        exit_body = [SAssign(flag, Const(T_BOOL, True)), SBreak()]
                    self._push(SIf(Un(T_BOOL, "!", cond), exit_body, []))
                for stmt in node.body:
                    try:
                        self._stmt(stmt)
                    except _StmtBail as exc:
                        self._push(SBail(exc.reason))
            loop_body = self._capture(build)
        finally:
            self._loop_depth -= 1
        self._push(SLoop(loop_body))
        if node.orelse:
            if const is not _MISS and bool(const):
                # ``while True`` never exits normally; the else is dead.
                return
            orelse = self._capture_block(node.orelse)
            self._push(SIf(flag, orelse, []))

    def _stmt_return(self, node: ast.Return) -> None:
        info = self.fn
        value = node.value
        if value is None or (
            isinstance(value, ast.Constant) and value.value is None
        ):
            if info.returns_value and not info.is_entry:
                raise _StmtBail("bare return from value-returning helper")
            self._push(SReturn([]))
            return
        elts = value.elts if isinstance(value, ast.Tuple) else [value]
        if isinstance(value, ast.Call):
            call = self._unit_call(value)
            if call is not None:
                outs, maybools = call
                elts = None
                vals = outs
        if elts is not None:
            vals, maybools = [], []
            for elt in elts:
                v = self._expr(elt)
                maybools.append(self._maybool(v))
                vals.append(self._materialize(v) if len(elts) > 1 else v)
        if info.ret_arity == -1:
            info.ret_arity = len(vals)
            info.ret_types = [T_NONE] * len(vals)
            info.ret_maybool = [False] * len(vals)
        if info.ret_arity != len(vals):
            raise _StmtBail("return arity mismatch")
        converted = []
        for i, v in enumerate(vals):
            joined = _join(info.ret_types[i], v.type)
            if joined != info.ret_types[i]:
                info.ret_types[i] = joined
                self._changed = True
            if maybools[i] and not info.ret_maybool[i]:
                info.ret_maybool[i] = True
                self._changed = True
            converted.append(self._convert(v, joined, "return"))
        self._push(SReturn(converted))

    # -- variables ------------------------------------------------------------------

    def _fresh(self, type_: int) -> VarRef:
        name = f"t{self._temp_counter}"
        self._temp_counter += 1
        self._temps.append((name, type_))
        return VarRef(type_, name)

    def _materialize(self, expr):
        if isinstance(expr, VarRef):
            return expr
        return self._snapshot(expr)

    def _snapshot(self, expr):
        """Like :meth:`_materialize`, but a variable read is copied too, so
        later stores to that variable cannot change the value."""
        if isinstance(expr, Const):
            return expr
        var = self._fresh(expr.type)
        self._push(SAssign(var, expr))
        return var

    def _maybool(self, expr) -> bool:
        if isinstance(expr, Const):
            return expr.type == T_BOOL
        if isinstance(expr, VarRef):
            return expr.name in {
                _sanitize(n) for n in self.fn.var_maybool
            } or expr.type == T_BOOL
        if isinstance(expr, Sel):
            return self._maybool(expr.a) or self._maybool(expr.b)
        return expr.type == T_BOOL

    def _store(self, name: str, expr, maybool=None) -> None:
        info = self.fn
        if name == R_NAME:
            value = self._convert(expr, T_F64, "r store")
            self._push(SSetR(value))
            return
        if maybool is None:
            maybool = self._maybool(expr)
        old = info.var_types.get(name, T_NONE)
        joined = _join(old, expr.type)
        if joined != old:
            info.var_types[name] = joined
            self._changed = True
        if maybool and name not in info.var_maybool:
            info.var_maybool.add(name)
            self._changed = True
        value = self._convert(expr, joined, f"store to {name}")
        self._push(SAssign(VarRef(joined, _sanitize(name)), value))
        if name in info.var_wide:
            self._push(SAssign(VarRef(T_BOOL, _wide_flag(name)),
                               Const(T_BOOL, False)))

    def _store_wide(self, name: str, wide: _Wide) -> None:
        """Store a maybe-huge int: the variable keeps its flag, so a later
        read can still mask it exactly or settle it."""
        info = self.fn
        reason = info.var_wide.get(name)
        if reason is None or reason not in (wide.reason, _WIDE_MIXED):
            info.var_wide[name] = wide.reason if reason is None else _WIDE_MIXED
            self._changed = True
        self._store(name, wide.low)  # its flag reset is a dead store
        self._push(SAssign(VarRef(T_BOOL, _wide_flag(name)), wide.flag))

    def _convert(self, expr, target: int, what: str):
        """Implicit store conversion.  Runtime int64 -> float64 is a bail:
        downstream Python arithmetic would stay exact-int while the native
        value rounds, which is unverifiable statically."""
        if expr.type == target or target == T_NONE:
            return expr
        if target == T_I64 and expr.type == T_BOOL:
            return Cast(T_I64, expr)
        if target == T_F64 and expr.type == T_BOOL:
            return Cast(T_F64, expr)
        if target == T_F64 and expr.type == T_I64:
            if isinstance(expr, Const):
                if float(expr.value) == expr.value:
                    return Const(T_F64, float(expr.value))
                raise _StmtBail(f"inexact int constant in {what}")
            raise _StmtBail(f"runtime int->float {what}")
        raise _StmtBail(f"untypable {what}")

    # -- constant folding -----------------------------------------------------------

    def _try_const(self, node):
        if isinstance(node, ast.Constant):
            v = node.value
            return v if type(v) in (bool, int, float) else _MISS
        if isinstance(node, ast.Name):
            if node.id in self.fn.assigned or node.id == R_NAME:
                return _MISS
            v = global_value(self.namespace, node.id)
            return v if type(v) in FOLD_TYPES else _MISS
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in self.fn.assigned:
                return _MISS
            v = global_value(self.namespace, node.value.id, node.attr)
            return v if type(v) in FOLD_TYPES else _MISS
        if isinstance(node, ast.UnaryOp):
            v = self._try_const(node.operand)
            if v is _MISS:
                return _MISS
            try:
                if isinstance(node.op, ast.USub):
                    return -v
                if isinstance(node.op, ast.UAdd):
                    return +v
                if isinstance(node.op, ast.Invert):
                    return ~v
                if isinstance(node.op, ast.Not):
                    return not v
            except TypeError:
                return _MISS
            return _MISS
        if isinstance(node, ast.BinOp):
            left = self._try_const(node.left)
            right = self._try_const(node.right)
            if left is _MISS or right is _MISS:
                return _MISS
            ops = {
                ast.Add: lambda a, b: a + b,
                ast.Sub: lambda a, b: a - b,
                ast.Mult: lambda a, b: a * b,
                ast.Div: lambda a, b: a / b,
                ast.FloorDiv: lambda a, b: a // b,
                ast.Mod: lambda a, b: a % b,
                ast.Pow: lambda a, b: a ** b,
                ast.LShift: lambda a, b: a << b,
                ast.RShift: lambda a, b: a >> b,
                ast.BitAnd: lambda a, b: a & b,
                ast.BitOr: lambda a, b: a | b,
                ast.BitXor: lambda a, b: a ^ b,
            }
            fn = ops.get(type(node.op))
            if fn is None:
                return _MISS
            try:
                return fn(left, right)
            except Exception:
                return _MISS  # dynamic emission reproduces the exception
        return _MISS

    def _const_expr(self, value):
        if type(value) is bool:
            return Const(T_BOOL, value)
        if type(value) is int:
            if _I64_MIN <= value <= _I64_MAX:
                return Const(T_I64, value)
            raise _StmtBail("integer constant beyond int64")
        if type(value) is float:
            return Const(T_F64, value)
        raise _StmtBail(f"unsupported constant {type(value).__name__}")

    # -- expressions ----------------------------------------------------------------

    def _expr(self, node):
        value = self._wide_expr(node)
        if isinstance(value, _Wide):
            return self._settle(value)
        return value

    def _settle(self, wide: _Wide):
        """The int64 value of a maybe-huge int, bailing when it is huge."""
        self._push(SIf(wide.flag, [SBail(wide.reason)], []))
        return wide.low

    def _wide_expr(self, node):
        """Like :meth:`_expr`, but an int converted from a double may come
        back unsettled, as a :class:`_Wide`."""
        folded = self._try_const(node)
        if folded is not _MISS:
            return self._const_expr(folded)
        if isinstance(node, ast.Name):
            return self._expr_name(node)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._unaryop(node)
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.IfExp):
            return self._ifexp(node)
        if isinstance(node, ast.NamedExpr):
            value = self._expr(node.value)
            self._store(node.target.id, value)
            info = self.fn
            return VarRef(info.var_types[node.target.id],
                          _sanitize(node.target.id))
        if isinstance(node, ast.Subscript):
            return self._subscript(node)
        if isinstance(node, ast.BoolOp):
            raise _StmtBail("boolean op in value position")
        raise _StmtBail(f"unsupported expression {type(node).__name__}")

    def _expr_name(self, node: ast.Name):
        name = node.id
        if name == R_NAME:
            return VarRef(T_F64, "r", is_r=True)
        info = self.fn
        if name in info.assigned:
            t = info.var_types.get(name, T_NONE)
            if t == T_NONE:
                raise _StmtBail(f"read of untyped variable {name!r}")
            if t == T_I64 and name in info.var_wide:
                return _Wide(VarRef(t, _sanitize(name)),
                             VarRef(T_BOOL, _wide_flag(name)),
                             info.var_wide[name])
            return VarRef(t, _sanitize(name))
        raise _StmtBail(f"unresolvable name {name!r}")

    def _as_i64(self, expr):
        if expr.type == T_I64:
            return expr
        if expr.type == T_BOOL:
            return Cast(T_I64, expr)
        raise _StmtBail("expected an integer operand")

    def _as_f64_arith(self, expr):
        """Float promotion inside mixed arithmetic: CPython converts the int
        with the same correctly-rounded int64->double conversion as C."""
        if expr.type == T_F64:
            return expr
        if expr.type in (T_I64, T_BOOL):
            if isinstance(expr, Const):
                return Const(T_F64, float(expr.value))
            return Cast(T_F64, expr)
        raise _StmtBail("expected a numeric operand")

    def _guard_exact_i64(self, expr, why: str):
        """Bail unless an int64 round-trips through double exactly (needed
        where CPython compares/divides ints *exactly*, not via rounding)."""
        if isinstance(expr, Const):
            if float(expr.value) == expr.value:
                return Const(T_F64, float(expr.value))
            raise _StmtBail(f"inexact int constant in {why}")
        var = self._materialize(self._as_i64(expr))
        self._push(SIf(Un(T_BOOL, "!", CallE(T_BOOL, "sp_i64_exact", [var])),
                       [SBail(why)], []))
        return Cast(T_F64, var)

    def _binop(self, node: ast.BinOp):
        op = type(node.op)
        if op is ast.BitAnd:
            return self._bitand(node)
        if op in _WRAPPING_OPS:
            return self._wrapping(node)
        left = self._expr(node.left)
        right = self._expr(node.right)
        if op is ast.Div:
            b = self._materialize(right)
            zero = Const(b.type if b.type != T_BOOL else T_I64,
                         0.0 if b.type == T_F64 else 0)
            self._push(SIf(Bin(T_BOOL, "==", self._as_f64_arith(b)
                               if b.type == T_F64 else self._as_i64(b), zero),
                           [SFreeze("division by zero")], []))
            if left.type == T_F64 or right.type == T_F64:
                return Bin(T_F64, "/", self._as_f64_arith(left),
                           self._as_f64_arith(b))
            # int / int: CPython divides the exact integers then rounds once.
            fa = self._guard_exact_i64(left, "inexact int division")
            fb = self._guard_exact_i64(b, "inexact int division")
            return Bin(T_F64, "/", fa, fb)
        if op in (ast.FloorDiv, ast.Mod):
            if left.type == T_F64 or right.type == T_F64:
                raise _StmtBail("float floordiv/mod")
            a = self._materialize(self._as_i64(left))
            b = self._materialize(self._as_i64(right))
            self._push(SIf(Bin(T_BOOL, "==", b, Const(T_I64, 0)),
                           [SFreeze("integer division by zero")], []))
            self._push(SIf(
                Bin(T_BOOL, "&&",
                    Bin(T_BOOL, "==", a, Const(T_I64, _I64_MIN)),
                    Bin(T_BOOL, "==", b, Const(T_I64, -1))),
                [SBail("int64 division overflow")], []))
            fn = "sp_ifdiv" if op is ast.FloorDiv else "sp_imod"
            return CallE(T_I64, fn, [a, b])
        if op in (ast.BitOr, ast.BitXor):
            sym = {ast.BitOr: "|", ast.BitXor: "^"}[op]
            return Bin(T_I64, sym, self._as_i64(left), self._as_i64(right))
        if op is ast.LShift:
            a = self._materialize(self._as_i64(left))
            s = self._materialize(self._as_i64(right))
            self._push(SIf(Bin(T_BOOL, "<", s, Const(T_I64, 0)),
                           [SFreeze("negative shift count")], []))
            self._push(SIf(Bin(T_BOOL, ">", s, Const(T_I64, 63)),
                           [SBail("shift beyond int64")], []))
            res = self._materialize(Bin(T_I64, "<<", a, s))
            self._push(SIf(Bin(T_BOOL, "!=", CallE(T_I64, "sp_sar", [res, s]), a),
                           [SBail("int64 left-shift overflow")], []))
            return res
        if op is ast.RShift:
            a = self._materialize(self._as_i64(left))
            s = self._materialize(self._as_i64(right))
            self._push(SIf(Bin(T_BOOL, "<", s, Const(T_I64, 0)),
                           [SFreeze("negative shift count")], []))
            saturated = Sel(T_I64, Bin(T_BOOL, "<", a, Const(T_I64, 0)),
                            Const(T_I64, -1), Const(T_I64, 0))
            return Sel(T_I64, Bin(T_BOOL, ">", s, Const(T_I64, 63)),
                       saturated, CallE(T_I64, "sp_sar", [a, s]))
        raise _StmtBail(f"unsupported operator {op.__name__}")

    def _wrapping(self, node: ast.BinOp):
        """``+ - *``.  An int result is a :class:`_Wide`: the low 64 bits of
        ``a op b`` depend only on those of ``a`` and ``b``, so they stay exact
        for flagged operands too, and the flag is set when an operand was
        flagged or the int64 operation overflowed."""
        sym, overflows = _WRAPPING_OPS[type(node.op)]
        left = self._wide_expr(node.left)
        right = self._wide_expr(node.right)
        if any(not isinstance(v, _Wide) and v.type == T_F64 for v in (left, right)):
            left, right = (self._settle(v) if isinstance(v, _Wide) else v
                           for v in (left, right))
            return Bin(T_F64, sym,
                       self._as_f64_arith(left), self._as_f64_arith(right))
        wide = [v for v in (left, right) if isinstance(v, _Wide)]
        a, b = (self._materialize(self._as_i64(v.low if isinstance(v, _Wide) else v))
                for v in (left, right))
        flag = CallE(T_BOOL, overflows, [a, b])
        for operand in wide:
            flag = Bin(T_BOOL, "||", operand.flag, flag)
        low = self._snapshot(Bin(T_I64, sym, a, b))
        reason = wide[0].reason if wide else f"int64 {sym} overflow"
        return _Wide(low, self._snapshot(flag), reason)

    def _bitand(self, node: ast.BinOp):
        """``a & C`` with ``0 <= C < 2**63`` depends only on the low 64 bits
        of ``a`` and fits int64, so a maybe-huge ``a`` is masked unsettled."""
        left = self._wide_expr(node.left)
        right = self._wide_expr(node.right)
        if isinstance(left, _Wide) and _is_mask(right):
            return Bin(T_I64, "&", left.low, right)
        if isinstance(right, _Wide) and _is_mask(left):
            return Bin(T_I64, "&", left, right.low)
        if isinstance(left, _Wide):
            left = self._settle(left)
        if isinstance(right, _Wide):
            right = self._settle(right)
        return Bin(T_I64, "&", self._as_i64(left), self._as_i64(right))

    def _wide_int(self, x, reason: str) -> _Wide:
        """The int of a float64 ``x`` that is integral or fits int64 (C
        truncates like ``int()`` there), as a maybe-huge int."""
        flag = self._snapshot(
            Un(T_BOOL, "!", CallE(T_BOOL, "sp_f64_fits_i64", [x])))
        low = self._snapshot(CallE(T_I64, "sp_f64_low64", [x]))
        return _Wide(low, flag, reason)

    def _unaryop(self, node: ast.UnaryOp):
        if isinstance(node.op, ast.Not):
            return Un(T_BOOL, "!", self._truthy(self._expr(node.operand)))
        operand = self._expr(node.operand)
        if isinstance(node.op, ast.UAdd):
            if operand.type == T_BOOL:
                return Cast(T_I64, operand)
            return operand
        if isinstance(node.op, ast.USub):
            if operand.type == T_F64:
                return Un(T_F64, "-", operand)
            v = self._materialize(self._as_i64(operand))
            self._push(SIf(Bin(T_BOOL, "==", v, Const(T_I64, _I64_MIN)),
                           [SBail("negate int64 min")], []))
            return Un(T_I64, "-", v)
        if isinstance(node.op, ast.Invert):
            return Un(T_I64, "~", self._as_i64(operand))
        raise _StmtBail("unsupported unary operator")

    def _truthy(self, expr):
        if expr.type == T_BOOL:
            return expr
        if expr.type == T_I64:
            return Bin(T_BOOL, "!=", expr, Const(T_I64, 0))
        if expr.type == T_F64:
            # NaN != 0.0 is true in C and bool(nan) is True in Python.
            return Bin(T_BOOL, "!=", expr, Const(T_F64, 0.0))
        raise _StmtBail("untypable truthiness")

    def _compare_pair(self, op, left, right):
        syms = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
                ast.Gt: ">", ast.GtE: ">="}
        sym = syms.get(type(op))
        if sym is None:
            raise _StmtBail(f"unsupported comparison {type(op).__name__}")
        lt, rt = left.type, right.type
        if lt == T_F64 or rt == T_F64:
            # CPython compares int/float *exactly*; converting is only sound
            # when the int round-trips through double.
            if lt != T_F64:
                left = self._guard_exact_i64(left, "inexact mixed comparison")
            if rt != T_F64:
                right = self._guard_exact_i64(right, "inexact mixed comparison")
            return Bin(T_BOOL, sym, left, right)
        return Bin(T_BOOL, sym, self._as_i64(left), self._as_i64(right))

    def _compare(self, node: ast.Compare):
        if len(node.ops) == 1:
            return self._compare_pair(
                node.ops[0], self._expr(node.left),
                self._expr(node.comparators[0]))
        # Chained comparison, statementized with short-circuit parity.
        res = self._fresh(T_BOOL)
        left = self._materialize(self._expr(node.left))

        def chain(index, lhs):
            mid = self._materialize(self._expr(node.comparators[index]))
            self._push(SAssign(res, self._compare_pair(node.ops[index], lhs, mid)))
            if index + 1 < len(node.ops):
                body = self._capture(lambda: chain(index + 1, mid))
                self._push(SIf(res, body, []))

        chain(0, left)
        return res

    def _ifexp(self, node: ast.IfExp):
        fold = self._fold_static_test(node.test)
        if fold is not None:
            return self._expr(node.body if fold else node.orelse)
        cond = self._emit_test(node.test)
        body_val = []
        body = self._capture(lambda: body_val.append(self._expr(node.body)))
        other_val = []
        orelse = self._capture(lambda: other_val.append(self._expr(node.orelse)))
        joined = _join(body_val[0].type, other_val[0].type)
        res = self._fresh(joined)
        body.append(SAssign(res, self._convert(body_val[0], joined, "ternary")))
        orelse.append(SAssign(res, self._convert(other_val[0], joined, "ternary")))
        self._push(SIf(cond, body, orelse))
        return res

    # -- test expressions and the specializer's static guards ------------------------

    def _fold_static_test(self, node):
        """Fold the specializer's dynamic type guards against static types.

        Returns True/False when the guard is decidable, None when the node is
        not a guard shape.  Undecidable guards (untyped or maybe-bool vars)
        bail the statement.
        """
        if (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and isinstance(node.ops[0], ast.Is)
            and isinstance(node.left, ast.Attribute)
            and node.left.attr == "__class__"
            and isinstance(node.comparators[0], ast.Name)
            and node.comparators[0].id in ("float", "bool")
        ):
            target = node.left.value
            if not isinstance(target, ast.Name):
                raise _StmtBail("class guard on non-name")
            name = target.id
            info = self.fn
            if name not in info.assigned:
                const = global_value(self.namespace, name)
                if const is _MISS:
                    raise _StmtBail("class guard on unresolvable name")
                cls = node.comparators[0].id
                return type(const) is (float if cls == "float" else bool)
            t = info.var_types.get(name, T_NONE)
            if t == T_NONE:
                raise _StmtBail("class guard on untyped variable")
            maybool = name in info.var_maybool
            if node.comparators[0].id == "float":
                if t == T_F64:
                    if maybool:
                        raise _StmtBail("class guard on maybe-bool float")
                    return True
                return False
            if t == T_BOOL:
                return True
            if maybool:
                raise _StmtBail("class guard on maybe-bool variable")
            return False
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            folds = [self._fold_static_test(v) for v in node.values]
            if all(f is not None for f in folds):
                return all(folds)
            return None
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and isinstance(node.args[0], ast.Name)
        ):
            name = node.args[0].id
            info = self.fn
            if name in info.assigned:
                if info.var_types.get(name, T_NONE) == T_NONE:
                    raise _StmtBail("isinstance on untyped variable")
                return True  # bool/i64/f64 are all isinstance (int, float)
            raise _StmtBail("isinstance on unresolvable name")
        return None

    def _emit_test(self, node):
        fold = self._fold_static_test(node)
        if fold is not None:
            return Const(T_BOOL, bool(fold))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return Un(T_BOOL, "!", self._emit_test(node.operand))
        if isinstance(node, ast.BoolOp):
            res = self._fresh(T_BOOL)
            is_and = isinstance(node.op, ast.And)

            def step(index):
                self._push(SAssign(res, self._emit_test(node.values[index])))
                if index + 1 < len(node.values):
                    rest = self._capture(lambda: step(index + 1))
                    cond = res if is_and else Un(T_BOOL, "!", res)
                    self._push(SIf(cond, rest, []))

            step(0)
            return res
        return self._truthy(self._expr(node))

    # -- subscripts: constant-tuple arrays -------------------------------------------

    def _subscript(self, node: ast.Subscript):
        if not isinstance(node.value, ast.Name):
            raise _StmtBail("subscript of non-name")
        name = node.value.id
        if name in self.fn.assigned:
            raise _StmtBail("subscript of local variable")
        if name == SAT_NAME and not self.fn.adopted:
            return SatRef(T_I64, node.slice.value)
        table = global_value(self.namespace, name)
        if not isinstance(table, tuple) or not table:
            raise _StmtBail(f"subscript of unsupported object {name!r}")
        c_name, elem_type = self._register_array(name, table)
        index = self._materialize(self._as_i64(self._expr(node.slice)))
        length = Const(T_I64, len(table))
        wrapped = self._materialize(
            Sel(T_I64, Bin(T_BOOL, "<", index, Const(T_I64, 0)),
                Bin(T_I64, "+", index, length), index))
        # IndexError is not swallowed by the runtimes, so an out-of-range
        # index must bail (the scalar tier would propagate the exception).
        self._push(SIf(
            Bin(T_BOOL, "||",
                Bin(T_BOOL, "<", wrapped, Const(T_I64, 0)),
                Bin(T_BOOL, ">=", wrapped, length)),
            [SBail("tuple index out of range")], []))
        return ArrRef(elem_type, c_name, wrapped)

    def _register_array(self, name: str, table: tuple):
        # Keyed by the tuple itself: one name can be bound to different
        # tables in different modules' globals.
        cached = self._array_names.get(id(table))
        if cached is not None:
            return cached
        if all(type(v) is int for v in table):
            if not all(_I64_MIN <= v <= _I64_MAX for v in table):
                raise _StmtBail("tuple constant beyond int64")
            elem_type = T_I64
            values = tuple(int(v) for v in table)
        elif all(type(v) in (int, float) for v in table):
            if not all(
                type(v) is float or float(v) == v for v in table
            ):
                raise _StmtBail("inexact int in float tuple constant")
            elem_type = T_F64
            values = tuple(float(v) for v in table)
        else:
            raise _StmtBail("non-numeric tuple constant")
        c_name = f"sp_arr{len(self.arrays)}_{_sanitize(name)[2:]}"
        self.arrays[c_name] = (elem_type, values)
        self._array_names[id(table)] = (c_name, elem_type)
        return c_name, elem_type

    # -- calls -----------------------------------------------------------------------

    def _call(self, node: ast.Call):
        call = self._unit_call(node)
        if call is not None:
            outs, _ = call
            if len(outs) != 1:
                raise _StmtBail("tuple-returning call in value position")
            return outs[0]
        if node.keywords:
            raise _StmtBail("keyword arguments")
        if any(isinstance(a, ast.Starred) for a in node.args):
            raise _StmtBail("starred arguments")
        fn, label = self._resolve_callable(node.func)
        handler = getattr(self, f"_call_{label}", None)
        if handler is None:
            raise _StmtBail(f"unsupported call {label!r}")
        return handler(node.args)

    def _unit_call(self, node: ast.Call):
        """Emit a call to another unit of the program or to an adopted
        helper; returns (outs, maybools) or None when the callee is
        neither."""
        if not isinstance(node.func, ast.Name):
            return None
        # A unit name means the unit only inside the program namespace; an
        # adopted helper's globals bind it to the uninstrumented original.
        callee = None if self.fn.adopted else self.infos.get(node.func.id)
        if callee is None:
            callee = self._register_helper(node.func.id)
        if callee is None:
            return None
        if node.keywords or any(isinstance(a, ast.Starred) for a in node.args):
            raise _StmtBail("unsupported unit call shape")
        args = [self._expr(a) for a in node.args]
        if len(args) < len(callee.params):
            for name in callee.params[len(args):]:
                if name not in callee.defaults:
                    raise _StmtBail("unit call missing argument")
                args.append(self._const_expr(callee.defaults[name]))
        if len(args) != len(callee.params):
            raise _StmtBail("unit call arity mismatch")
        converted = []
        for name, arg in zip(callee.params, args):
            old = callee.var_types.get(name, T_NONE)
            joined = _join(old, arg.type)
            if joined != old:
                callee.var_types[name] = joined
                self._changed = True
            if self._maybool(arg) and name not in callee.param_maybool:
                callee.param_maybool.add(name)
                callee.var_maybool.add(name)
                self._changed = True
            converted.append(self._convert(arg, joined, "unit call argument"))
        if callee.ret_arity == -1:
            raise _StmtBail("callee return signature not yet known")
        outs = [self._fresh(t if t != T_NONE else T_F64)
                for t in callee.ret_types]
        self._push(SCall(callee.c_name, converted, outs))
        maybools = list(callee.ret_maybool) or []
        return outs, maybools

    def _register_helper(self, name):
        """Lazily adopt a plain namespace function as a probe-free unit.

        Programs may call uninstrumented module-level helpers (e.g.
        ``e_scalb``'s ``_isnan``).  The scalar tier executes their raw
        Python against their own module globals, so emitting the unmodified
        AST through the same statement machinery, with names resolved in
        ``obj.__globals__``, is exactly equivalent: no probes, no
        ``r``/coverage writes, same freeze/bail taxonomy inside.  Helpers
        are keyed by function object, so one reachable from several modules
        is emitted once.  Returns the registered :class:`_FnInfo` or
        ``None`` when the object is not adoptable (the caller then bails
        the statement)."""
        if name in self.fn.assigned:
            return None
        obj = global_value(self.namespace, name)
        if not inspect.isfunction(obj):
            return None
        if obj in self._helpers:
            return self._helpers[obj]
        self._helpers[obj] = info = self._adopt(obj)
        if info is not None:
            self.order.append(info)
            self._changed = True
        return info

    def _adopt(self, obj):
        if obj.__closure__ is not None:
            return None
        mod = getattr(obj, "__module__", "") or ""
        if mod == "math" or mod.endswith("fdlibm.bits"):
            return None  # intrinsic surface, not a helper body
        try:
            source = textwrap.dedent(inspect.getsource(obj))
            tree = parse(source)
        except (OSError, TypeError, SyntaxError):
            return None
        func = next(
            (s for s in tree.body
             if isinstance(s, ast.FunctionDef) and s.name == obj.__name__),
            None,
        )
        if func is None or func.decorator_list:
            return None
        arguments = func.args
        if arguments.vararg or arguments.kwarg or arguments.kwonlyargs \
                or arguments.posonlyargs:
            return None
        return _fn_info(func, obj.__name__,
                        f"sp_h{len(self.order)}_{obj.__name__}",
                        obj.__globals__, adopted=True)

    def _resolve_callable(self, func):
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.fn.assigned:
                raise _StmtBail("call through local variable")
            obj = global_value(self.namespace, name)
            if obj is _MISS:
                if name in ("float", "int", "abs", "min", "max", "bool", "len"):
                    return None, name
                raise _StmtBail(f"call of unresolvable name {name!r}")
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in self.fn.assigned:
                raise _StmtBail("call on unresolvable attribute")
            obj = global_value(self.namespace, func.value.id, func.attr)
            if obj is _MISS:
                raise _StmtBail("call on unresolvable attribute")
        else:
            raise _StmtBail("unsupported callable expression")
        if obj in (float, int, abs, min, max, bool, len):
            return None, obj.__name__
        mod = getattr(obj, "__module__", None) or ""
        name = getattr(obj, "__name__", None) or ""
        if mod == "math":
            if name in _LIBM_1:
                self._libm1_name = name
                return None, "libm1"
            if name in ("copysign", "fmod", "pow", "atan2"):
                self._libm2_name = name
                return None, "libm2"
            if name in ("floor", "ceil", "trunc"):
                self._round_name = name
                return None, "round"
            if name in ("isnan", "isinf", "isfinite", "ldexp", "remainder"):
                return None, name
            raise _StmtBail(f"unsupported math function {name!r}")
        if mod.endswith("fdlibm.bits") and name in _BITS_INTRINSICS:
            return None, f"bits_{name}"
        raise _StmtBail(f"unsupported callable {mod}.{name}")

    def _one(self, args, what):
        if len(args) != 1:
            raise _StmtBail(f"{what} expects one argument")
        return self._expr(args[0])

    def _two(self, args, what):
        if len(args) != 2:
            raise _StmtBail(f"{what} expects two arguments")
        return self._expr(args[0]), self._expr(args[1])

    def _f64_arg(self, expr):
        """An argument demanded as float64 by an intrinsic: explicit
        conversions round exactly like CPython's, any magnitude."""
        return self._as_f64_arith(expr)

    # builtins ------------------------------------------------------------------

    def _call_float(self, args):
        if len(args) == 1 and isinstance(args[0], ast.Constant) \
                and isinstance(args[0].value, str):
            try:
                return Const(T_F64, float(args[0].value))
            except ValueError:
                raise _StmtBail("unparsable float() string") from None
        if len(args) == 1 and isinstance(args[0], ast.Call):
            opaque = self._opaque_call(args[0])
            if opaque is not None:
                return opaque
        return self._f64_arg(self._one(args, "float"))

    def _opaque_call(self, node: ast.Call):
        """``float(f(x))`` for an :data:`OPAQUE_CALLS` callable ``f`` and a
        float ``x``: a temp holding an :class:`Opaque` value, or ``None``
        when ``f`` is not one of them."""
        func = node.func
        if isinstance(func, ast.Name):
            owner, attr = func.id, None
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner, attr = func.value.id, func.attr
        else:
            return None
        if owner in self.fn.assigned:
            return None
        name = opaque_name(global_value(self.namespace, owner, attr))
        if name is None or node.keywords or len(node.args) != 1 \
                or isinstance(node.args[0], ast.Starred):
            return None
        # The argument is evaluated for its guards; only its type matters.
        if self._expr(node.args[0]).type != T_F64:
            raise _StmtBail(f"{name} of a non-float argument")
        return self._snapshot(Opaque(T_F64, name))

    def _call_int(self, args):
        if len(args) != 1:
            raise _StmtBail("int expects one argument")
        v = self._wide_expr(args[0])
        if isinstance(v, _Wide):
            return v
        if v.type in (T_I64, T_BOOL):
            return self._as_i64(v)
        x = self._materialize(v)
        self._push(SIf(Bin(T_BOOL, "!=", x, x),
                       [SFreeze("int() of nan")], []))
        self._push(SIf(CallE(T_BOOL, "sp_isinf", [x]),
                       [SFreeze("int() of infinity")], []))
        return self._wide_int(x, "int() beyond int64")

    def _call_bool(self, args):
        return self._truthy(self._one(args, "bool"))

    def _call_abs(self, args):
        v = self._one(args, "abs")
        if v.type == T_F64:
            return CallE(T_F64, "fabs", [v])
        x = self._materialize(self._as_i64(v))
        self._push(SIf(Bin(T_BOOL, "==", x, Const(T_I64, _I64_MIN)),
                       [SBail("abs of int64 min")], []))
        return Sel(T_I64, Bin(T_BOOL, "<", x, Const(T_I64, 0)),
                   Un(T_I64, "-", x), x)

    def _minmax(self, args, is_min):
        a, b = self._two(args, "min/max")
        if a.type == T_F64 or b.type == T_F64:
            if a.type != T_F64:
                a = self._guard_exact_i64(a, "inexact mixed min/max")
            if b.type != T_F64:
                b = self._guard_exact_i64(b, "inexact mixed min/max")
        else:
            a, b = self._as_i64(a), self._as_i64(b)
        a = self._materialize(a)
        b = self._materialize(b)
        t = _join(a.type, b.type)
        # Python keeps the *first* argument on ties and NaN comparisons:
        # min(a, b) is b only when b < a (and symmetrically for max).
        cond = Bin(T_BOOL, "<", b, a) if is_min else Bin(T_BOOL, "<", a, b)
        return Sel(t, cond, b, a)

    def _call_min(self, args):
        return self._minmax(args, True)

    def _call_max(self, args):
        return self._minmax(args, False)

    def _call_len(self, args):
        if len(args) == 1 and isinstance(args[0], ast.Name):
            table = global_value(self.namespace, args[0].id)
            if isinstance(table, tuple) and args[0].id not in self.fn.assigned:
                return Const(T_I64, len(table))
        raise _StmtBail("len of non-constant")

    # math ----------------------------------------------------------------------

    def _call_libm1(self, args):
        name = self._libm1_name
        x = self._materialize(self._f64_arg(self._one(args, name)))
        res = self._materialize(CallE(T_F64, name, [x]))
        if name != "fabs":
            # CPython's m_math_1 wrapper: inf from a finite argument is
            # OverflowError, nan from a non-nan argument is ValueError --
            # both swallowed, so both freeze.
            self._push(SIf(
                Bin(T_BOOL, "&&",
                    CallE(T_BOOL, "sp_isinf", [res]),
                    Un(T_BOOL, "!", CallE(T_BOOL, "sp_isinf", [x]))),
                [SFreeze(f"math.{name} overflow")], []))
            self._push(SIf(
                Bin(T_BOOL, "&&",
                    Bin(T_BOOL, "!=", res, res),
                    Bin(T_BOOL, "==", x, x)),
                [SFreeze(f"math.{name} domain error")], []))
        return res

    def _call_libm2(self, args):
        name = self._libm2_name
        a, b = self._two(args, name)
        x = self._materialize(self._f64_arg(a))
        y = self._materialize(self._f64_arg(b))
        res = self._materialize(CallE(T_F64, name, [x, y]))
        if name != "copysign":
            both_nonnan = Bin(T_BOOL, "&&",
                              Bin(T_BOOL, "==", x, x),
                              Bin(T_BOOL, "==", y, y))
            both_finite = Bin(
                T_BOOL, "&&",
                Un(T_BOOL, "!", CallE(T_BOOL, "sp_isinf", [x])),
                Un(T_BOOL, "!", CallE(T_BOOL, "sp_isinf", [y])))
            self._push(SIf(
                Bin(T_BOOL, "&&", Bin(T_BOOL, "!=", res, res), both_nonnan),
                [SFreeze(f"math.{name} domain error")], []))
            self._push(SIf(
                Bin(T_BOOL, "&&",
                    CallE(T_BOOL, "sp_isinf", [res]),
                    Bin(T_BOOL, "&&", both_nonnan, both_finite)),
                [SFreeze(f"math.{name} overflow/domain")], []))
        return res

    def _call_round(self, args):
        name = self._round_name
        v = self._one(args, name)
        if v.type in (T_I64, T_BOOL):
            return self._as_i64(v)
        x = self._materialize(v)
        self._push(SIf(Bin(T_BOOL, "!=", x, x),
                       [SFreeze(f"math.{name} of nan")], []))
        self._push(SIf(CallE(T_BOOL, "sp_isinf", [x]),
                       [SFreeze(f"math.{name} of infinity")], []))
        rounded = self._materialize(CallE(T_F64, name, [x]))
        return self._wide_int(rounded, f"math.{name} beyond int64")

    def _call_isnan(self, args):
        x = self._f64_arg(self._one(args, "isnan"))
        x = self._materialize(x)
        return Bin(T_BOOL, "!=", x, x)

    def _call_isinf(self, args):
        return CallE(T_BOOL, "sp_isinf",
                     [self._materialize(self._f64_arg(self._one(args, "isinf")))])

    def _call_isfinite(self, args):
        x = self._materialize(self._f64_arg(self._one(args, "isfinite")))
        return Bin(T_BOOL, "&&",
                   Bin(T_BOOL, "==", x, x),
                   Un(T_BOOL, "!", CallE(T_BOOL, "sp_isinf", [x])))

    def _call_ldexp(self, args):
        a, b = self._two(args, "ldexp")
        x = self._materialize(self._f64_arg(a))
        if b.type == T_F64:
            raise _StmtBail("ldexp with float exponent")
        e = self._materialize(self._as_i64(b))
        res = self._fresh(T_F64)
        # CPython math_ldexp_impl, case by case (OverflowError freezes).
        big = self._capture(lambda: self._ldexp_big(x, res))
        small = [SAssign(res, CallE(T_F64, "copysign",
                                    [Const(T_F64, 0.0), x]))]
        main = self._capture(lambda: self._ldexp_main(x, e, res))
        self._push(SIf(
            Bin(T_BOOL, ">", e, Const(T_I64, 2147483647)),
            big,
            [SIf(Bin(T_BOOL, "<", e, Const(T_I64, -2147483648)),
                 small, main)]))
        return res

    def _ldexp_big(self, x, res):
        is_special = Bin(
            T_BOOL, "||",
            Bin(T_BOOL, "==", x, Const(T_F64, 0.0)),
            Bin(T_BOOL, "||",
                CallE(T_BOOL, "sp_isinf", [x]),
                Bin(T_BOOL, "!=", x, x)))
        self._push(SIf(is_special, [SAssign(res, x)],
                       [SFreeze("ldexp overflow")]))

    def _ldexp_main(self, x, e, res):
        self._push(SAssign(res, CallE(T_F64, "sp_ldexp", [x, e])))
        self._push(SIf(
            Bin(T_BOOL, "&&",
                CallE(T_BOOL, "sp_isinf", [res]),
                Bin(T_BOOL, "&&",
                    Un(T_BOOL, "!", CallE(T_BOOL, "sp_isinf", [x])),
                    Bin(T_BOOL, "==", x, x))),
            [SFreeze("ldexp overflow")], []))

    def _call_remainder(self, args):
        a, b = self._two(args, "remainder")
        x = self._materialize(self._f64_arg(a))
        y = self._materialize(self._f64_arg(b))
        res = self._fresh(T_F64)
        # CPython m_remainder: nan passthrough, ValueError for inf x or
        # zero y (freeze); remainder() itself is an exact IEEE operation.
        finite = self._capture(lambda: self._remainder_finite(x, y, res))
        self._push(SIf(Bin(T_BOOL, "!=", x, x), [SAssign(res, x)],
                       [SIf(Bin(T_BOOL, "!=", y, y), [SAssign(res, y)],
                            [SIf(CallE(T_BOOL, "sp_isinf", [x]),
                                 [SFreeze("remainder of infinity")],
                                 finite)])]))
        return res

    def _remainder_finite(self, x, y, res):
        self._push(SIf(CallE(T_BOOL, "sp_isinf", [y]), [SAssign(res, x)],
                       [SIf(Bin(T_BOOL, "==", y, Const(T_F64, 0.0)),
                            [SFreeze("remainder by zero")],
                            [SAssign(res, CallE(T_F64, "remainder", [x, y]))])]))

    # fdlibm word intrinsics ------------------------------------------------------

    def _call_bits_high_word(self, args):
        x = self._f64_arg(self._one(args, "high_word"))
        return CallE(T_I64, "sp_high_word", [x])

    def _call_bits_low_word(self, args):
        x = self._f64_arg(self._one(args, "low_word"))
        return CallE(T_I64, "sp_low_word", [x])

    def _call_bits_abs_high_word(self, args):
        x = self._f64_arg(self._one(args, "abs_high_word"))
        return Bin(T_I64, "&", CallE(T_I64, "sp_high_word", [x]),
                   Const(T_I64, 0x7FFFFFFF))

    def _call_bits_from_words(self, args):
        hi, lo = self._two(args, "from_words")
        return CallE(T_F64, "sp_from_words",
                     [self._as_i64(hi), self._as_i64(lo)])

    def _call_bits_set_high_word(self, args):
        x, hi = self._two(args, "set_high_word")
        return CallE(T_F64, "sp_set_high_word",
                     [self._f64_arg(x), self._as_i64(hi)])

    def _call_bits_set_low_word(self, args):
        x, lo = self._two(args, "set_low_word")
        return CallE(T_F64, "sp_set_low_word",
                     [self._f64_arg(x), self._as_i64(lo)])

    def _call_bits_copysign_bit(self, args):
        x, y = self._two(args, "copysign_bit")
        return CallE(T_F64, "copysign",
                     [self._f64_arg(x), self._f64_arg(y)])

    def _call_bits_fabs(self, args):
        return CallE(T_F64, "fabs",
                     [self._f64_arg(self._one(args, "fabs"))])

    def _call_bits_double_to_bits(self, args):
        # The unsigned 64-bit pattern exceeds int64 for negative doubles.
        raise _StmtBail("double_to_bits in native tier")

    def _call_bits_bits_to_double(self, args):
        raise _StmtBail("bits_to_double in native tier")


# -- dead-value slice ---------------------------------------------------------------------


def _uses(expr, live: set) -> set:
    """Add the variables ``expr`` reads to ``live``; returns ``live``."""
    if isinstance(expr, VarRef):
        if not expr.is_r:
            live.add(expr.name)
    elif isinstance(expr, Bin):
        _uses(expr.left, live)
        _uses(expr.right, live)
    elif isinstance(expr, (Un, Cast)):
        _uses(expr.operand, live)
    elif isinstance(expr, CallE):
        for arg in expr.args:
            _uses(arg, live)
    elif isinstance(expr, Sel):
        _uses(expr.cond, live)
        _uses(expr.a, live)
        _uses(expr.b, live)
    elif isinstance(expr, ArrRef):
        _uses(expr.index, live)
    return live


def _walk(stmts):
    """Every statement of a body, nested ones included, in order."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, SIf):
            yield from _walk(stmt.body)
            yield from _walk(stmt.orelse)
        elif isinstance(stmt, SLoop):
            yield from _walk(stmt.body)


class _Slicer:
    """Backward liveness over one function body, dropping dead statements.

    Given the function's live return slots, :meth:`block` returns the body
    without the assignments to dead variables, ``if`` statements left with
    two empty branches and the calls into adopted helpers whose results are
    dead and which cannot freeze or bail; :attr:`demanded` collects the
    return slots each callee must still fill.  Every other statement stays:
    ``r`` and covered-bit writes, freezes, bails, loops, returns and calls
    into program units."""

    def __init__(self, ret_live: set, functions: dict, effectful: dict):
        self.ret_live = ret_live
        self.functions = functions
        self.effectful = effectful
        self.demanded: dict = {}  # callee c_name -> live return slots
        self._loops: list = []  # (live after the loop, live at its head)

    def block(self, stmts, live: set):
        kept = []
        for stmt in reversed(stmts):
            stmt, live = self.stmt(stmt, live)
            if stmt is not None:
                kept.append(stmt)
        kept.reverse()
        return kept, live

    def stmt(self, s, live: set):
        if isinstance(s, SAssign):
            if s.var.name not in live:
                return None, live
            if isinstance(s.value, Opaque):
                return SBail(f"unsupported callable {s.value.fn}"), set()
            return s, _uses(s.value, live - {s.var.name})
        if isinstance(s, SSetR):
            return s, _uses(s.value, set(live))
        if isinstance(s, SCov):
            return s, _uses(s.index, set(live))
        if isinstance(s, SIf):
            body, live_body = self.block(s.body, live)
            orelse, live_else = self.block(s.orelse, live)
            if not body and not orelse:
                return None, live
            return SIf(s.cond, body, orelse), _uses(s.cond, live_body | live_else)
        if isinstance(s, SLoop):
            # The least fixpoint of the variables live at the loop head.
            head: set = set()
            while True:
                self._loops.append((live, head))
                body, entry = self.block(s.body, head)
                self._loops.pop()
                if entry <= head:
                    return SLoop(body), head
                head = head | entry
        if isinstance(s, SBreak):
            return s, set(self._loops[-1][0])
        if isinstance(s, SContinue):
            return s, set(self._loops[-1][1])
        if isinstance(s, SReturn):
            values = [v if i in self.ret_live else None
                      for i, v in enumerate(s.values)]
            live = set()
            for value in values:
                if value is not None:
                    _uses(value, live)
            return SReturn(values), live
        if isinstance(s, (SFreeze, SBail)):
            return s, set()
        if isinstance(s, SCall):
            outs = {i for i, out in enumerate(s.outs) if out.name in live}
            self.demanded.setdefault(s.fn, set()).update(outs)
            if not outs and not _keeps_call(s.fn, self.functions,
                                            self.effectful):
                return None, live
            live = live - {out.name for out in s.outs}
            for arg in s.args:
                _uses(arg, live)
            return s, live
        raise TypeError(f"unknown IR statement {type(s).__name__}")


def _keeps_call(c_name: str, functions: dict, effectful: dict) -> bool:
    """Must a call whose results are all dead stay?  A call into a program
    unit always does (coverage and ``r``); one into an adopted helper only
    when its sliced body can freeze or bail."""
    return not functions[c_name].adopted or effectful[c_name]


def _has_effects(stmts, functions: dict, effectful: dict) -> bool:
    for s in _walk(stmts):
        if isinstance(s, SCall):
            if _keeps_call(s.fn, functions, effectful):
                return True
        elif not isinstance(s, (SAssign, SIf, SReturn, SBreak, SContinue)):
            return True  # a write of r or coverage, a freeze, a bail, a loop
    return False


def slice_dead_values(functions: list) -> list:
    """Delete every computation whose value reaches no test or effect.

    A fixpoint over the call graph: each function is sliced given the
    return slots its callers use and whether the helpers it calls can
    freeze or bail; both only grow, so the loop ends.  Functions the entry
    no longer reaches are dropped."""
    by_name = {fn.c_name: fn for fn in functions}
    ret_live = {name: set() for name in by_name}
    effectful = {name: False for name in by_name}
    while True:
        bodies = {}
        demanded = {name: set(slots) for name, slots in ret_live.items()}
        for fn in functions:
            slicer = _Slicer(ret_live[fn.c_name], by_name, effectful)
            bodies[fn.c_name], _ = slicer.block(fn.body, set())
            for callee, slots in slicer.demanded.items():
                demanded[callee] |= slots
        effects = {
            name: effectful[name] or _has_effects(bodies[name], by_name, effectful)
            for name in by_name
        }
        if demanded == ret_live and effects == effectful:
            break
        ret_live, effectful = demanded, effects
    entry = next(fn.c_name for fn in functions if fn.is_entry)
    reached, stack = {entry}, [entry]
    while stack:
        for s in _walk(bodies[stack.pop()]):
            if isinstance(s, SCall) and s.fn not in reached:
                reached.add(s.fn)
                stack.append(s.fn)
    return [replace(fn, body=bodies[fn.c_name])
            for fn in functions if fn.c_name in reached]


def _number_sites(functions: list):
    """Number the bail sites in emission order; returns their reasons (by
    site) and the count of freeze sites."""
    reasons, freezes = [], 0
    for fn in functions:
        for s in _walk(fn.body):
            if isinstance(s, SBail):
                s.site = len(reasons)
                reasons.append(s.reason)
            elif isinstance(s, SFreeze):
                freezes += 1
    return reasons, freezes


# -- module entry point -------------------------------------------------------------------


def emit_program_ir(units, entry_name, arity, n_conditionals, namespace) -> ProgramIR:
    """Emit the typed IR for one instrumented program, for every mask.

    Raises :class:`NativeUnavailable` when the program cannot produce a
    useful native kernel (e.g. the entry bails unconditionally)."""
    emitter = ProgramEmitter(units, entry_name, arity, n_conditionals, namespace)
    return emitter.emit()
