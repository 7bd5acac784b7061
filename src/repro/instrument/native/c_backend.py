"""C99 backend: renders the typed native IR into one translation unit.

The generated file exposes three entry points and two constants with a
fixed ABI:

``const long long sp_meta[5]``
    ``{ABI version, arity, n_words, bail sites, freeze sites}``.  A warm
    load reads the kernel's shape from this constant instead of re-emitting
    the C source, and rejects a shared object whose ABI, arity or
    covered-word count disagree with the requesting program.

``const char *const sp_bail_reasons[]``
    The reason text of each bail site, by site index (diagnostics).

``int sp_entry(const double *x, const uint64_t *sat, double *r_out,
uint64_t *cov_out, int64_t *last_out)``
    One row under the saturation mask ``sat`` (``n_words`` words laid out
    like the covered bits: bit ``2 * c + outcome`` set when that branch of
    conditional ``c`` is saturated; every probe site reads its two bits and
    branches to its Def. 4.2 case).  Returns 0 on completion (``r_out``,
    ``cov_out`` and ``last_out`` valid, frozen rows included) and
    ``1 + site`` on a *bail* at bail site ``site`` (the caller re-runs the
    row on the scalar tier).  ``cov_out`` receives every branch the row
    took; ``*last_out`` is the covered-bit index ``2 * c + outcome`` of the
    last conditional executed, or -1 when none ran.

``void sp_batch(const double *rows, long long n, const uint64_t *sat,
double *r_out, uint64_t *cov_out, int32_t *bail_out, int64_t *last_out)``
    ``n`` rows, row-major, ``arity`` doubles each, under one mask.
    ``cov_out`` receives the union of covered bits over the non-bailed
    rows; ``bail_out[i]`` is ``sp_entry``'s return code of row ``i``,
    nonzero for rows the caller must redo, and ``last_out[i]`` (when
    ``last_out`` is not null) its last conditional, -1 for a bailed row.

``void sp_batch_mt(const double *rows, long long n, long long n_threads,
const uint64_t *sat, double *r_out, uint64_t *cov_out, int32_t *bail_out,
int64_t *last_out)``
    Same row semantics, but the row range is partitioned across pthread
    workers in contiguous near-equal ranges (the first ``n % threads``
    workers take one row more).
    Each worker accumulates covered bits into a private
    ``uint64_t[SP_NWORDS]`` partial; the coordinator joins and OR-merges
    the partials in fixed thread-index order.  Rows are independent and OR
    is commutative, so ``r_out`` and the covered set are bit-identical for
    any thread count.  Unlike ``sp_batch``, ``cov_out`` is an **in/out
    accumulator**: it is never zeroed here, only OR-ed into, so a caller
    holding the accumulator across calls reads only newly-set words.

All per-row state lives in a context struct on the worker's stack, so one
shared object is safely callable from many threads at once.  The serial
row loop hoists the context out of the loop (clearing only dirtied words)
and ``restrict``-qualifies the row/output pointers so the compiler may
vectorize it.  Float constants render as C99 hex literals for
bit-exactness, and the build uses ``-ffp-contract=off`` so no FMA
contraction can change results.
"""

from __future__ import annotations

import math

from repro.instrument.native.cache import ABI_VERSION
from repro.instrument.native.emit import (
    ArrRef,
    Bin,
    CallE,
    Cast,
    Const,
    FnIR,
    ProgramIR,
    SAssign,
    SBail,
    SBreak,
    SCall,
    SContinue,
    SCov,
    SFreeze,
    SIf,
    SLoop,
    SReturn,
    SSetR,
    SatRef,
    Sel,
    T_BOOL,
    T_F64,
    T_I64,
    Un,
    VarRef,
)

BACKEND_NAME = "c99"

#: Field order of the exported ``sp_meta`` constant.
SP_META_FIELDS = ("abi", "arity", "n_words", "bail_sites", "freeze_sites")

_CTYPES = {T_BOOL: "int", T_I64: "int64_t", T_F64: "double"}
_CZEROS = {T_BOOL: "0", T_I64: "0", T_F64: "0.0"}

_PRELUDE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>
#include <pthread.h>

/* Stack-array bound on worker threads per sp_batch_mt call. */
#define SP_MT_MAX 64

typedef struct {
    double r;
    uint64_t cov[SP_NWORDS];
    const uint64_t *sat; /* the saturation mask words of this call */
    int64_t last; /* covered-bit index of the last conditional, or -1 */
    int status; /* 0 ok, 1 frozen (swallowed exception), 2 bail */
    int bail_site; /* the bail site that fired, when status is 2 */
} SpCtx;

static uint64_t sp_bits(double x) { uint64_t u; memcpy(&u, &x, 8); return u; }
static double sp_double(uint64_t u) { double x; memcpy(&x, &u, 8); return x; }
static int64_t sp_high_word(double x) {
    return (int64_t)(int32_t)(uint32_t)(sp_bits(x) >> 32);
}
static int64_t sp_low_word(double x) { return (int64_t)(uint32_t)sp_bits(x); }
static double sp_from_words(int64_t hi, int64_t lo) {
    return sp_double((((uint64_t)hi & 0xffffffffULL) << 32)
                     | ((uint64_t)lo & 0xffffffffULL));
}
static double sp_set_high_word(double x, int64_t hi) {
    return sp_double((sp_bits(x) & 0xffffffffULL)
                     | (((uint64_t)hi & 0xffffffffULL) << 32));
}
static double sp_set_low_word(double x, int64_t lo) {
    return sp_double((sp_bits(x) & 0xffffffff00000000ULL)
                     | ((uint64_t)lo & 0xffffffffULL));
}
static int sp_isinf(double x) { return x == INFINITY || x == -INFINITY; }
/* Does the int64 round-trip through double exactly?  (CPython compares and
   true-divides ints exactly; the native tier bails when rounding differs.) */
static int sp_i64_exact(int64_t v) {
    double d = (double)v;
    if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) return 0;
    return (int64_t)d == v;
}
static int sp_f64_fits_i64(double v) {
    return v >= -9223372036854775808.0 && v < 9223372036854775808.0;
}
/* The low 64 bits (two's complement) of the int of a finite double that is
   integral or fits int64: Python's int(v) modulo 2**64, any magnitude. */
static int64_t sp_f64_low64(double v) {
    if (sp_f64_fits_i64(v)) return (int64_t)v;
    uint64_t b = sp_bits(v);
    int e = (int)((b >> 52) & 0x7ff) - 1075; /* v = m * 2**e, e >= 11 */
    uint64_t m = (b & 0xfffffffffffffULL) | 0x10000000000000ULL;
    uint64_t low = e < 64 ? m << e : 0;
    return (int64_t)((b >> 63) ? 0 - low : low);
}
/* Does int64 a op b overflow?  (Python promotes to a big int there.) */
static int sp_add_ovf(int64_t a, int64_t b) { int64_t r; return __builtin_add_overflow(a, b, &r); }
static int sp_sub_ovf(int64_t a, int64_t b) { int64_t r; return __builtin_sub_overflow(a, b, &r); }
static int sp_mul_ovf(int64_t a, int64_t b) { int64_t r; return __builtin_mul_overflow(a, b, &r); }
/* Portable arithmetic right shift for 0 <= s <= 63. */
static int64_t sp_sar(int64_t a, int64_t s) {
    return a < 0 ? (int64_t)~(~(uint64_t)a >> s)
                 : (int64_t)((uint64_t)a >> s);
}
/* Python floor division / modulo (divisor != 0, no int64 overflow). */
static int64_t sp_ifdiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}
static int64_t sp_imod(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}
static double sp_ldexp(double x, int64_t e) { return ldexp(x, (int)e); }
"""


def _f64_lit(value: float) -> str:
    if value != value:
        return "sp_double(0x7ff8000000000000ULL)"
    if value == math.inf:
        return "INFINITY"
    if value == -math.inf:
        return "(-INFINITY)"
    if value == 0.0:
        return "-0.0" if math.copysign(1.0, value) < 0 else "0.0"
    return value.hex()


def _i64_lit(value: int) -> str:
    if value == -(1 << 63):
        return "(-9223372036854775807LL - 1)"
    return f"{value}LL"


def _rx(e) -> str:
    if isinstance(e, Const):
        if e.type == T_BOOL:
            return "1" if e.value else "0"
        if e.type == T_I64:
            return _i64_lit(int(e.value))
        return _f64_lit(float(e.value))
    if isinstance(e, VarRef):
        return "ctx->r" if e.is_r else e.name
    if isinstance(e, Bin):
        a, b = _rx(e.left), _rx(e.right)
        if e.type == T_I64 and e.op in ("+", "-", "*"):
            return f"((int64_t)((uint64_t)({a}) {e.op} (uint64_t)({b})))"
        if e.op == "<<":
            return f"((int64_t)((uint64_t)({a}) << ({b})))"
        return f"(({a}) {e.op} ({b}))"
    if isinstance(e, Un):
        a = _rx(e.operand)
        if e.op == "-" and e.type == T_I64:
            return f"((int64_t)(0 - (uint64_t)({a})))"
        return f"({e.op}({a}))"
    if isinstance(e, Cast):
        return f"(({_CTYPES[e.type]})({_rx(e.operand)}))"
    if isinstance(e, CallE):
        return f"{e.fn}({', '.join(_rx(a) for a in e.args)})"
    if isinstance(e, Sel):
        return f"(({_rx(e.cond)}) ? ({_rx(e.a)}) : ({_rx(e.b)}))"
    if isinstance(e, ArrRef):
        return f"{e.array}[{_rx(e.index)}]"
    if isinstance(e, SatRef):
        bit = 2 * e.label
        return f"((int64_t)((ctx->sat[{bit >> 6}] >> {bit & 63}) & 3))"
    raise TypeError(f"unrenderable IR expression {type(e).__name__}")


def _comment(text: str) -> str:
    return text.replace("*/", "* /").replace("\n", " ")


def _c_string(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("?", "\\?")
    escaped = escaped.replace("\n", " ")
    return f'"{escaped}"'


class _FnRenderer:
    def __init__(self, fn: FnIR, lines: list):
        self.fn = fn
        self.lines = lines

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def block(self, stmts, indent: int) -> None:
        for stmt in stmts:
            self.stmt(stmt, indent)

    def stmt(self, s, indent: int) -> None:
        emit = self.emit
        if isinstance(s, SAssign):
            emit(indent, f"{_rx(s.var)} = {_rx(s.value)};")
        elif isinstance(s, SSetR):
            emit(indent, f"ctx->r = {_rx(s.value)};")
        elif isinstance(s, SCov):
            emit(indent, "{")
            emit(indent + 1, f"int64_t sp_ix = {_rx(s.index)};")
            emit(indent + 1,
                 "ctx->cov[(uint64_t)sp_ix >> 6] |= "
                 "1ULL << ((uint64_t)sp_ix & 63);")
            emit(indent + 1, "ctx->last = sp_ix;")
            emit(indent, "}")
        elif isinstance(s, SIf):
            emit(indent, f"if ({_rx(s.cond)}) {{")
            self.block(s.body, indent + 1)
            if s.orelse:
                emit(indent, "} else {")
                self.block(s.orelse, indent + 1)
            emit(indent, "}")
        elif isinstance(s, SLoop):
            emit(indent, "for (;;) {")
            self.block(s.body, indent + 1)
            emit(indent, "}")
        elif isinstance(s, SBreak):
            emit(indent, "break;")
        elif isinstance(s, SContinue):
            emit(indent, "continue;")
        elif isinstance(s, SFreeze):
            emit(indent,
                 f"{{ ctx->status = 1; return; }} /* {_comment(s.reason)} */")
        elif isinstance(s, SBail):
            emit(indent,
                 f"{{ ctx->status = 2; ctx->bail_site = {s.site}; return; }} "
                 f"/* {_comment(s.reason)} */")
        elif isinstance(s, SReturn):
            for index, value in enumerate(s.values):
                if value is not None:  # a slot no caller reads
                    emit(indent, f"*sp_ret{index} = {_rx(value)};")
            emit(indent, "return;")
        elif isinstance(s, SCall):
            args = ["ctx"] + [_rx(a) for a in s.args]
            args += [f"&{out.name}" for out in s.outs]
            emit(indent, f"{s.fn}({', '.join(args)});")
            emit(indent, "if (ctx->status) return;")
        else:
            raise TypeError(f"unrenderable IR statement {type(s).__name__}")


def _signature(fn: FnIR) -> str:
    parts = ["SpCtx *ctx"]
    parts += [f"{_CTYPES[t]} {name}" for name, t in fn.params]
    parts += [f"{_CTYPES[t]} *sp_ret{i}" for i, t in enumerate(fn.ret_types)]
    return f"static void {fn.c_name}({', '.join(parts)})"


def _render_fn(fn: FnIR, lines: list) -> None:
    lines.append(_signature(fn) + " {")
    renderer = _FnRenderer(fn, lines)
    for name, type_ in fn.local_vars:
        renderer.emit(1, f"{_CTYPES[type_]} {name} = {_CZEROS[type_]};")
    renderer.block(fn.body, 1)
    lines.append("}")
    lines.append("")


def _render_entry_call(ir: ProgramIR, lines: list, indent: str,
                       row_expr) -> None:
    for i, t in enumerate(ir.entry.ret_types):
        lines.append(f"{indent}{_CTYPES[t]} sp_r{i} = {_CZEROS[t]};")
    args = ["&ctx"]
    args += [row_expr(k) for k in range(len(ir.entry.params))]
    args += [f"&sp_r{i}" for i in range(len(ir.entry.ret_types))]
    lines.append(f"{indent}{ir.entry.c_name}({', '.join(args)});")
    for i in range(len(ir.entry.ret_types)):
        lines.append(f"{indent}(void)sp_r{i};")


def render_c(ir: ProgramIR) -> str:
    """Render the whole program IR into one C99 translation unit."""
    lines = [
        "/* Generated native penalty kernel; do not edit. */",
        f"#define SP_NWORDS {ir.n_words}",
        _PRELUDE,
    ]
    for c_name, (elem_type, values) in ir.arrays.items():
        lits = (
            ", ".join(_i64_lit(v) for v in values)
            if elem_type == T_I64
            else ", ".join(_f64_lit(v) for v in values)
        )
        lines.append(
            f"static const {_CTYPES[elem_type]} "
            f"{c_name}[{len(values)}] = {{ {lits} }};"
        )
    meta = (ABI_VERSION, len(ir.entry.params), ir.n_words, ir.bail_sites,
            ir.freeze_sites)
    lines.append(
        f"const long long sp_meta[{len(SP_META_FIELDS)}] = "
        f"{{ {', '.join(_i64_lit(v) for v in meta)} }};"
    )
    reasons = [_c_string(reason) for reason in ir.bail_reasons] or ["0"]
    lines.append(
        f"const char *const sp_bail_reasons[{len(reasons)}] = "
        f"{{ {', '.join(reasons)} }};"
    )
    lines.append("")
    for fn in ir.functions:
        lines.append(_signature(fn) + ";")
    lines.append("")
    for fn in ir.functions:
        _render_fn(fn, lines)
    arity = len(ir.entry.params)
    lines += [
        "int sp_entry(const double *x, const uint64_t *sat, double *r_out,",
        "             uint64_t *cov_out, int64_t *last_out) {",
        "    SpCtx ctx;",
        "    ctx.r = 1.0;",
        "    memset(ctx.cov, 0, sizeof ctx.cov);",
        "    ctx.sat = sat;",
        "    ctx.last = -1;",
        "    ctx.status = 0;",
    ]
    _render_entry_call(ir, lines, "    ", lambda k: f"x[{k}]")
    lines += [
        "    if (ctx.status == 2) return 1 + ctx.bail_site;",
        "    *r_out = ctx.r;",
        "    for (int w = 0; w < SP_NWORDS; w++) cov_out[w] = ctx.cov[w];",
        "    *last_out = ctx.last;",
        "    return 0;",
        "}",
        "",
        "/* Row range [start, end): r/bail/last per row, covered bits OR-ed",
        "   into cov (never zeroed here).  The SpCtx is hoisted out of the",
        "   loop; only the words a row dirtied are cleared before the next",
        "   row. */",
        "static void sp_batch_range(const double *restrict rows,",
        "                           long long start, long long end,",
        "                           const uint64_t *sat,",
        "                           double *restrict r_out,",
        "                           uint64_t *restrict cov,",
        "                           int32_t *restrict bail_out,",
        "                           int64_t *restrict last_out) {",
        "    SpCtx ctx;",
        "    memset(ctx.cov, 0, sizeof ctx.cov);",
        "    ctx.sat = sat;",
        "    for (long long i = start; i < end; i++) {",
        f"        const double *restrict row = rows + i * {arity};",
        "        ctx.r = 1.0;",
        "        ctx.last = -1;",
        "        ctx.status = 0;",
    ]
    _render_entry_call(ir, lines, "        ", lambda k: f"row[{k}]")
    lines += [
        "        if (ctx.status == 2) {",
        "            bail_out[i] = 1 + ctx.bail_site;",
        "            r_out[i] = 0.0;",
        "            if (last_out) last_out[i] = -1;",
        "            /* Drop this row's partial coverage (bailed rows are",
        "               redone by the caller on the scalar tier). */",
        "            for (int w = 0; w < SP_NWORDS; w++) ctx.cov[w] = 0;",
        "            continue;",
        "        }",
        "        bail_out[i] = 0;",
        "        r_out[i] = ctx.r;",
        "        if (last_out) last_out[i] = ctx.last;",
        "        for (int w = 0; w < SP_NWORDS; w++) {",
        "            cov[w] |= ctx.cov[w];",
        "            ctx.cov[w] = 0;",
        "        }",
        "    }",
        "}",
        "",
        "void sp_batch(const double *rows, long long n, const uint64_t *sat,",
        "              double *r_out, uint64_t *cov_out, int32_t *bail_out,",
        "              int64_t *last_out) {",
        "    for (int w = 0; w < SP_NWORDS; w++) cov_out[w] = 0;",
        "    sp_batch_range(rows, 0, n, sat, r_out, cov_out, bail_out, last_out);",
        "}",
        "",
        "typedef struct {",
        "    const double *rows;",
        "    long long start;",
        "    long long end;",
        "    const uint64_t *sat;",
        "    double *r_out;",
        "    int32_t *bail_out;",
        "    int64_t *last_out;",
        "    uint64_t cov[SP_NWORDS];",
        "} SpMtChunk;",
        "",
        "static void *sp_mt_main(void *arg) {",
        "    SpMtChunk *chunk = (SpMtChunk *)arg;",
        "    sp_batch_range(chunk->rows, chunk->start, chunk->end, chunk->sat,",
        "                   chunk->r_out, chunk->cov, chunk->bail_out,",
        "                   chunk->last_out);",
        "    return 0;",
        "}",
        "",
        "/* Threaded batch: rows split across n_threads pthread workers in",
        "   contiguous chunks, the first n % n_threads of them one row longer;",
        "   private coverage partials are OR-merged in thread-index order, so",
        "   results are bit-identical for any thread count.  cov_out is an",
        "   in/out accumulator and is never zeroed here. */",
        "void sp_batch_mt(const double *rows, long long n, long long n_threads,",
        "                 const uint64_t *sat, double *r_out, uint64_t *cov_out,",
        "                 int32_t *bail_out, int64_t *last_out) {",
        "    if (n_threads > n) n_threads = n;",
        "    if (n_threads > SP_MT_MAX) n_threads = SP_MT_MAX;",
        "    if (n_threads <= 1) {",
        "        sp_batch_range(rows, 0, n, sat, r_out, cov_out, bail_out,",
        "                       last_out);",
        "        return;",
        "    }",
        "    SpMtChunk chunks[SP_MT_MAX];",
        "    pthread_t threads[SP_MT_MAX];",
        "    int started[SP_MT_MAX];",
        "    long long size = n / n_threads;",
        "    long long rest = n % n_threads;",
        "    long long pos = 0;",
        "    for (long long t = 0; t < n_threads; t++) {",
        "        long long count = size + (t < rest ? 1 : 0);",
        "        chunks[t].rows = rows;",
        "        chunks[t].start = pos;",
        "        chunks[t].end = pos + count;",
        "        chunks[t].sat = sat;",
        "        chunks[t].r_out = r_out;",
        "        chunks[t].bail_out = bail_out;",
        "        chunks[t].last_out = last_out;",
        "        memset(chunks[t].cov, 0, sizeof chunks[t].cov);",
        "        pos += count;",
        "    }",
        "    for (long long t = 0; t < n_threads; t++) {",
        "        started[t] = pthread_create(&threads[t], 0, sp_mt_main,",
        "                                    &chunks[t]) == 0;",
        "        if (!started[t]) sp_mt_main(&chunks[t]); /* run inline */",
        "    }",
        "    /* Join and OR-merge partials in fixed thread-index order. */",
        "    for (long long t = 0; t < n_threads; t++) {",
        "        if (started[t]) pthread_join(threads[t], 0);",
        "        for (int w = 0; w < SP_NWORDS; w++)",
        "            cov_out[w] |= chunks[t].cov[w];",
        "    }",
        "}",
        "",
    ]
    return "\n".join(lines)
