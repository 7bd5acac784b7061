"""Powell's local search in C, on top of a loaded kernel's ``sp_entry``.

Under ``penalty-native`` a start spends most of its time in the Python
optimizer loop around the kernel: Powell, the line search, the bit-pattern
memo and the representing-function wrapper.  This module moves that loop
into one C call.  Its library is a line-by-line transcription of
:func:`~repro.optimize.local.powell.powell`, of
:func:`~repro.optimize.local.line_search.minimize_scalar` (bracket, then
golden section) and of :class:`~repro.optimize.memo.BitPatternMemo` (a
FIFO-bounded cache keyed by bit pattern, with the same hit, miss and
eviction semantics).  It is compiled with the kernels' own flags
(``-ffp-contract=off``), so every comparison and every ``x + t * d`` rounds
as numpy does and a fused search is bit-identical to the Python one: same
points visited in the same order, same ``x``, ``fun`` and ``nfev``, same
memo hits and misses.  Basin-hopping's random draws, Metropolis acceptance
and callback stay in Python, once per hop.

A miss evaluates the kernel's ``sp_entry`` through a function pointer and
clamps non-finite ``r`` to ``1e300`` exactly as
:meth:`RepresentingFunction.__call__
<repro.core.representing.RepresentingFunction.__call__>` does.  A bailed
row goes to a ctypes callback running :meth:`NativeKernel._scalar_fallback
<repro.instrument.native.kernel.NativeKernel._scalar_fallback>`; an
exception raised there unwinds the C search and is raised again from the
Python call that started it.

Powell's direction update sums squares with ``np.sum``, which is a plain
left fold only for up to 7 elements (numpy switches to 8-way pairwise sums
beyond), so the fused search serves programs of arity <= :data:`MAX_ARITY`.

The library is one C99 source string, content-addressed by its text, the
compiler version and the optimization tier, and compiled into the native
cache directory with the same background protocol as the kernels: a start
that finds it missing or still compiling runs the Python search.  A build
that fails is reported once per process with a ``RuntimeWarning``.
"""

from __future__ import annotations

import ctypes
import hashlib
import threading
import warnings

import _ctypes
import numpy as np

from repro.instrument.native.cache import (
    NativeCompiling,
    NativeUnavailable,
    compile_kernel_background,
    discard_kernel,
    find_cc,
    opt_tier,
)
from repro.instrument.native.kernel import _elf_truncated
from repro.instrument.runtime import ExecutionProfile
from repro.optimize.local.line_search import _GOLDEN
from repro.optimize.memo import DEFAULT_MAX_ENTRIES
from repro.optimize.result import OptimizeResult

#: Widest program the fused search serves (``np.sum`` order; see above).
MAX_ARITY = 7

_C_SOURCE = r"""
/* Powell local search with a bit-pattern memo over a penalty kernel's
   sp_entry; a transcription of optimize/local/powell.py, line_search.py
   and optimize/memo.py.  Do not edit. */
#include <math.h>
#include <setjmp.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define LM_MAX_ARITY @MAX_ARITY@
#define LM_GOLDEN @GOLDEN@
#define LM_CLAMP 1.0e300

typedef int (*lm_entry_fn)(const double *x, double *r_out, uint64_t *cov_out);
/* Returns 0 with *r_out set, or nonzero when the Python fallback raised. */
typedef int (*lm_bail_fn)(const double *x, double *r_out);

typedef struct {
    int n;
    lm_entry_fn entry;
    lm_bail_fn bail;
    uint64_t *cov;
    /* FIFO memo: `count` entries in a ring of `cap` slots, oldest at
       `head`, chained per hash bucket through `next` (-1 ends a chain).
       The ring grows by doubling up to max_entries; it only evicts once
       full, so head stays 0 while it grows. */
    long long max_entries, cap, count, head, mask;
    uint64_t *keys;
    double *values;
    long long *next;
    long long *buckets;
    long long hits, misses, evictions;
    int status; /* why fail was jumped to: 1 fallback raised, 2 no memory */
    jmp_buf fail;
} lm_ctx;

static uint64_t lm_hash(const uint64_t *key, int n) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < n; i++) {
        h ^= key[i];
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 32;
    }
    return h;
}

static long long lm_find(const lm_ctx *c, const uint64_t *key, uint64_t h) {
    for (long long e = c->buckets[h & c->mask]; e >= 0; e = c->next[e])
        if (memcmp(c->keys + e * c->n, key, c->n * sizeof(uint64_t)) == 0)
            return e;
    return -1;
}

static void lm_link(lm_ctx *c, long long e, uint64_t h) {
    long long *bucket = &c->buckets[h & c->mask];
    c->next[e] = *bucket;
    *bucket = e;
}

static void lm_unlink(lm_ctx *c, long long e) {
    long long *link = &c->buckets[lm_hash(c->keys + e * c->n, c->n) & c->mask];
    while (*link != e) link = &c->next[*link];
    *link = c->next[e];
}

static void lm_fail(lm_ctx *c, int status) {
    c->status = status;
    longjmp(c->fail, 1);
}

/* Room for `cap` entries in 2*cap (rounded up to a power of two) buckets. */
static int lm_reserve(lm_ctx *c, long long cap) {
    long long n_buckets = 1;
    while (n_buckets < 2 * cap) n_buckets <<= 1;
    uint64_t *keys = realloc(c->keys, cap * c->n * sizeof *keys);
    if (keys == NULL) return 0;
    c->keys = keys;
    double *values = realloc(c->values, cap * sizeof *values);
    if (values == NULL) return 0;
    c->values = values;
    long long *next = realloc(c->next, cap * sizeof *next);
    if (next == NULL) return 0;
    c->next = next;
    long long *buckets = realloc(c->buckets, n_buckets * sizeof *buckets);
    if (buckets == NULL) return 0;
    c->buckets = buckets;
    c->cap = cap;
    c->mask = n_buckets - 1;
    for (long long b = 0; b < n_buckets; b++) buckets[b] = -1;
    for (long long e = 0; e < c->count; e++)
        lm_link(c, e, lm_hash(c->keys + e * c->n, c->n));
    return 1;
}

/* Store a new key as the newest entry, evicting the oldest when full. */
static void lm_insert(lm_ctx *c, const uint64_t *key, uint64_t h, double value) {
    long long e;
    if (c->count >= c->max_entries) {
        e = c->head;
        lm_unlink(c, e);
        c->head = (c->head + 1) % c->cap;
        c->evictions++;
    } else {
        if (c->count == c->cap) {
            long long cap = 2 * c->cap < c->max_entries ? 2 * c->cap : c->max_entries;
            if (!lm_reserve(c, cap)) lm_fail(c, 2);
        }
        e = c->count++;
    }
    memcpy(c->keys + e * c->n, key, c->n * sizeof(uint64_t));
    c->values[e] = value;
    lm_link(c, e, h);
}

/* BitPatternMemo.__call__ over RepresentingFunction.__call__. */
static double lm_value(lm_ctx *c, const double *x) {
    uint64_t key[LM_MAX_ARITY];
    memcpy(key, x, c->n * sizeof(double));
    uint64_t h = lm_hash(key, c->n);
    long long e = lm_find(c, key, h);
    if (e >= 0) {
        c->hits++;
        return c->values[e];
    }
    double r;
    if (c->entry(x, &r, c->cov) && c->bail(x, &r)) lm_fail(c, 1);
    if (r != r || r == INFINITY || r == -INFINITY) r = LM_CLAMP;
    c->misses++;
    lm_insert(c, key, h, r);
    return r;
}

/* powell.evaluate */
static double lm_evaluate(lm_ctx *c, const double *p, long long *nfev) {
    *nfev += 1;
    double value = lm_value(c, p);
    return value != value ? INFINITY : value;
}

/* line_search._safe */
static double lm_safe(double value) {
    return value != value ? INFINITY : value;
}

/* powell's `along` closure: t -> evaluate(x + t * d). */
typedef struct {
    lm_ctx *c;
    const double *x;
    const double *d;
    double *p;
    long long *nfev;
} lm_line;

static double lm_along(const lm_line *line, double t) {
    for (int i = 0; i < line->c->n; i++) line->p[i] = line->x[i] + t * line->d[i];
    return lm_safe(lm_evaluate(line->c, line->p, line->nfev));
}

/* sorted((a, b)) */
static void lm_sorted(double a, double b, double *lo, double *hi) {
    if (b < a) { *lo = b; *hi = a; } else { *lo = a; *hi = b; }
}

static void lm_bracket(const lm_line *line, double t0, double step,
                       double *lo, double *mid, double *hi) {
    const double grow = 3.0;
    double fa = lm_along(line, t0);
    double t_right = t0 + step;
    double fr = lm_along(line, t_right);
    double t_left = t0 - step;
    double fl = lm_along(line, t_left);
    if (fa <= fr && fa <= fl) {
        *lo = t_left; *mid = t0; *hi = t_right;
        return;
    }
    double direction, prev, cur, f_prev, f_cur;
    if (fr < fl) {
        direction = 1.0; prev = t0; cur = t_right; f_prev = fa; f_cur = fr;
    } else {
        direction = -1.0; prev = t0; cur = t_left; f_prev = fa; f_cur = fl;
    }
    double width = step;
    for (int k = 0; k < 700; k++) {
        width *= grow;
        double nxt = cur + direction * width;
        if (isnan(nxt)) break;
        double f_nxt = lm_along(line, nxt);
        if (f_nxt >= f_cur) {
            lm_sorted(prev, nxt, lo, hi);
            *mid = cur;
            return;
        }
        prev = cur; cur = nxt;
        f_prev = f_cur; f_cur = f_nxt;
        if (isinf(cur)) break;
    }
    lm_sorted(prev, cur, lo, hi);
    *mid = f_cur <= f_prev ? cur : prev;
}

static void lm_golden(const lm_line *line, double low, double high, double tol,
                      int max_iterations, double *t_out, double *f_out) {
    double a = low, b = high;
    if (!isfinite(a)) a = copysign(1.0e308, a);
    if (!isfinite(b)) b = copysign(1.0e308, b);
    if (a > b) { double swap = a; a = b; b = swap; }
    double c = b - LM_GOLDEN * (b - a);
    double d = a + LM_GOLDEN * (b - a);
    double fc = lm_along(line, c);
    double fd = lm_along(line, d);
    double best_t, best_f;
    if (fc <= fd) { best_t = c; best_f = fc; } else { best_t = d; best_f = fd; }
    for (int k = 0; k < max_iterations; k++) {
        if (best_f == 0.0) break;
        if (fabs(b - a) <= tol * (fabs(a) + fabs(b) + 1e-300)) break;
        if (fc < fd) {
            b = d; d = c; fd = fc;
            c = b - LM_GOLDEN * (b - a);
            fc = lm_along(line, c);
        } else {
            a = c; c = d; fc = fd;
            d = a + LM_GOLDEN * (b - a);
            fd = lm_along(line, d);
        }
        if (fc < best_f) { best_t = c; best_f = fc; }
        if (fd < best_f) { best_t = d; best_f = fd; }
    }
    *t_out = best_t;
    *f_out = best_f;
}

static void lm_minimize_scalar(const lm_line *line, double t0, double step,
                               double *t_out, double *f_out) {
    const double tol = 1e-12;
    double low, mid, high;
    lm_bracket(line, t0, step, &low, &mid, &high);
    double f_low = lm_along(line, low);
    double f_mid = lm_along(line, mid);
    double f_high = lm_along(line, high);
    /* min(candidates, key=...) keeps the first minimum. */
    double best_t = low, best_f = f_low;
    if (f_mid < best_f) { best_t = mid; best_f = f_mid; }
    if (f_high < best_f) { best_t = high; best_f = f_high; }
    if (best_f > 0.0 && isfinite(low) && isfinite(high) && low < high) {
        double t_ref, f_ref;
        lm_golden(line, low, high, tol, 120, &t_ref, &f_ref);
        if (f_ref < best_f) { best_t = t_ref; best_f = f_ref; }
    }
    *t_out = best_t;
    *f_out = best_f;
}

static int lm_all_finite(const double *v, int n) {
    for (int i = 0; i < n; i++) if (!isfinite(v[i])) return 0;
    return 1;
}

lm_ctx *lm_new(int n, int n_words, void *entry, void *bail, long long max_entries) {
    lm_ctx *c = calloc(1, sizeof *c);
    if (c == NULL) return NULL;
    c->n = n;
    c->entry = (lm_entry_fn)entry;
    c->bail = (lm_bail_fn)bail;
    c->max_entries = max_entries;
    c->cov = calloc(n_words > 0 ? n_words : 1, sizeof *c->cov);
    if (c->cov == NULL || !lm_reserve(c, max_entries < 64 ? max_entries : 64)) {
        free(c->cov); free(c->keys); free(c->values); free(c->next); free(c->buckets);
        free(c);
        return NULL;
    }
    return c;
}

void lm_free(lm_ctx *c) {
    free(c->cov); free(c->keys); free(c->values); free(c->next); free(c->buckets);
    free(c);
}

/* hits, misses, evictions, entries, max_entries */
void lm_stats(const lm_ctx *c, long long *out) {
    out[0] = c->hits; out[1] = c->misses; out[2] = c->evictions;
    out[3] = c->count; out[4] = c->max_entries;
}

int lm_eval(lm_ctx *c, const double *x, double *out) {
    if (setjmp(c->fail)) return c->status;
    *out = lm_value(c, x);
    return 0;
}

/* BitPatternMemo.seed: plant a value without counting a hit or a miss. */
int lm_seed(lm_ctx *c, const double *x, double value) {
    if (setjmp(c->fail)) return c->status;
    uint64_t key[LM_MAX_ARITY];
    memcpy(key, x, c->n * sizeof(double));
    uint64_t h = lm_hash(key, c->n);
    long long e = lm_find(c, key, h);
    if (e >= 0) c->values[e] = value;
    else lm_insert(c, key, h, value);
    return 0;
}

/* powell(): x is updated in place. */
int lm_powell(lm_ctx *c, double *x, long long max_iterations, double tol,
              double step, double *fun, long long *nfev_out, long long *nit_out) {
    const int n = c->n;
    double directions[LM_MAX_ARITY * LM_MAX_ARITY];
    double x_start[LM_MAX_ARITY], point[LM_MAX_ARITY];
    double displacement[LM_MAX_ARITY], extrapolated[LM_MAX_ARITY];
    long long nfev = 0, iterations = 0;
    if (setjmp(c->fail)) return c->status;
    for (int i = 0; i < n * n; i++) directions[i] = 0.0;
    for (int i = 0; i < n; i++) directions[i * n + i] = 1.0;
    double f_current = lm_evaluate(c, x, &nfev);
    for (long long it = 1; it <= max_iterations; it++) {
        iterations = it;
        if (f_current == 0.0) break;
        double f_start = f_current;
        memcpy(x_start, x, n * sizeof(double));
        double largest_decrease = 0.0;
        int largest_index = 0;
        for (int index = 0; index < n; index++) {
            const double *direction = directions + index * n;
            double f_before = f_current;
            lm_line line = { c, x, direction, point, &nfev };
            double t_best, f_best;
            lm_minimize_scalar(&line, 0.0, step, &t_best, &f_best);
            if (f_best < f_current) {
                for (int i = 0; i < n; i++) x[i] = x[i] + t_best * direction[i];
                f_current = f_best;
            }
            double decrease = f_before - f_current;
            if (decrease > largest_decrease) {
                largest_decrease = decrease;
                largest_index = index;
            }
        }
        if (f_current == 0.0) break;
        /* Direction replacement step of Powell's method. */
        if (!(lm_all_finite(x, n) && lm_all_finite(x_start, n))) break;
        int moved = 0;
        for (int i = 0; i < n; i++) {
            displacement[i] = x[i] - x_start[i];
            if (displacement[i] != 0.0) moved = 1;
        }
        if (moved && lm_all_finite(displacement, n)) {
            double largest = 0.0;
            for (int i = 0; i < n; i++) {
                extrapolated[i] = x[i] + displacement[i];
                double magnitude = fabs(displacement[i]);
                if (i == 0 || magnitude > largest) largest = magnitude;
            }
            double scale = 1.0 > largest ? 1.0 : largest;
            double squares = 0.0;
            for (int i = 0; i < n; i++) {
                double scaled = displacement[i] / scale;
                squares += scaled * scaled;
            }
            double norm = sqrt(squares);
            norm *= largest;
            if (lm_all_finite(extrapolated, n)) {
                double f_extrapolated = lm_evaluate(c, extrapolated, &nfev);
                if (f_extrapolated < f_start && norm > 0.0 && isfinite(norm)) {
                    double *replaced = directions + largest_index * n;
                    for (int i = 0; i < n; i++) replaced[i] = displacement[i] / norm;
                }
            }
        }
        if (f_start - f_current <= tol * (fabs(f_start) + tol)) break;
    }
    *fun = f_current;
    *nfev_out = nfev;
    *nit_out = iterations;
    return 0;
}
""".replace("@MAX_ARITY@", str(MAX_ARITY)).replace("@GOLDEN@", _GOLDEN.hex())

_C_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_BAIL_FN = ctypes.CFUNCTYPE(ctypes.c_int, _C_DOUBLE_P, _C_DOUBLE_P)
_STATS_FIELDS = ("hits", "misses", "evictions", "entries", "max_entries")

#: Loaded libraries (or the build failure) by (source, cc version, opt
#: tier): every start asks, so the lookup does not hash the source.
_LIBRARIES: dict[tuple, object] = {}
_LIBRARIES_LOCK = threading.Lock()


def library_digest() -> str:
    """Content address of the library: its source, the compiler version
    line and the optimization tier (raises ``NativeUnavailable`` without a
    compiler)."""
    _cc, version = find_cc()
    hasher = hashlib.sha256()
    for part in (_C_SOURCE, f"cc={version}", f"opt={opt_tier()}"):
        hasher.update(part.encode("utf-8") + b"\n")
    return "local-min-" + hasher.hexdigest()


def _bind(so_path):
    """``dlopen`` the library and declare its entry points, or ``None``."""
    try:
        if _elf_truncated(so_path):
            return None
        lib = ctypes.CDLL(str(so_path))
    except OSError:
        return None
    c_void_p, c_longlong = ctypes.c_void_p, ctypes.c_longlong
    try:
        lib.lm_new.restype = c_void_p
        lib.lm_new.argtypes = [ctypes.c_int, ctypes.c_int, c_void_p, _BAIL_FN, c_longlong]
        lib.lm_free.restype = None
        lib.lm_free.argtypes = [c_void_p]
        lib.lm_stats.restype = None
        lib.lm_stats.argtypes = [c_void_p, c_void_p]
        lib.lm_eval.restype = ctypes.c_int
        lib.lm_eval.argtypes = [c_void_p, c_void_p, c_void_p]
        lib.lm_seed.restype = ctypes.c_int
        lib.lm_seed.argtypes = [c_void_p, c_void_p, ctypes.c_double]
        lib.lm_powell.restype = ctypes.c_int
        lib.lm_powell.argtypes = [c_void_p, c_void_p, c_longlong, ctypes.c_double,
                                  ctypes.c_double, c_void_p, c_void_p, c_void_p]
    except AttributeError:  # missing symbol: not our library
        _ctypes.dlclose(lib._handle)
        return None
    return lib


def local_min_library():
    """The loaded fused-search library, or ``None`` when it cannot serve.

    ``None`` while the background build runs (the caller runs the Python
    search this time and asks again at its next start) and after a failed
    build, which warns once per process.  A shared object that does not
    load is discarded and rebuilt."""
    try:
        key = (_C_SOURCE, find_cc()[1], opt_tier())
    except NativeUnavailable:
        return None  # no compiler: the kernels are unavailable too
    with _LIBRARIES_LOCK:
        cached = _LIBRARIES.get(key)
    if cached is not None:
        return None if isinstance(cached, NativeUnavailable) else cached
    digest = library_digest()
    try:
        so_path = compile_kernel_background(_C_SOURCE, digest)
    except NativeCompiling:
        return None
    except NativeUnavailable as exc:
        with _LIBRARIES_LOCK:
            first = key not in _LIBRARIES
            _LIBRARIES[key] = exc
        if first:
            warnings.warn(
                f"native local search unavailable ({exc}); Powell runs in Python",
                RuntimeWarning,
                stacklevel=2,
            )
        return None
    lib = _bind(so_path)
    if lib is None:
        discard_kernel(so_path)  # the next request rebuilds it
        return None
    with _LIBRARIES_LOCK:
        return _LIBRARIES.setdefault(key, lib)


def clear_local_min_library() -> None:
    """Forget loaded libraries and recorded build failures (tests)."""
    with _LIBRARIES_LOCK:
        _LIBRARIES.clear()


class NativeObjective:
    """One start's memoized objective, with Powell run in C.

    Calls are served by a C memo with :class:`~repro.optimize.memo.
    BitPatternMemo`'s semantics (its misses evaluate the kernel), so the
    object serves any backend or local minimizer; :meth:`powell` runs a
    whole Powell search in one native call against the same memo.  The
    memo lives in C memory owned by this object: :meth:`close` frees it
    and must be called (``run_start`` does so in a ``finally``).  Like its
    kernel, an instance belongs to one thread.

    Input that is not ``arity`` numbers goes to the representing function
    uncached, exactly as :class:`BitPatternMemo` forwards it, so a wrong
    arity raises the same ``ValueError``.
    """

    __slots__ = ("representing", "arity", "_lib", "_ctx", "_errors", "_bail",
                 "_x", "_out", "_fun", "_nfev", "_nit", "_stats")

    def __init__(self, representing, kernel, library,
                 max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if not 1 <= kernel.arity <= MAX_ARITY:
            raise ValueError(f"the native local search serves arity 1..{MAX_ARITY}")
        self.representing = representing
        self.arity = arity = kernel.arity
        self._lib = library
        # The callback closes over the kernel and an error list, not over
        # self, so no reference cycle keeps a closed instance alive.
        errors: list = []
        fallback = kernel._scalar_fallback

        def bail(x, r_out):
            try:
                r_out[0] = fallback(x[:arity])[0]
            except BaseException as exc:  # raised again once C unwinds
                errors.append(exc)
                return 1
            return 0

        self._errors = errors
        self._bail = _BAIL_FN(bail)  # must outlive the context
        entry = ctypes.cast(kernel.loaded.sp_entry, ctypes.c_void_p).value
        self._ctx = library.lm_new(arity, kernel.loaded.n_words, entry, self._bail,
                                   max_entries)
        if not self._ctx:
            raise MemoryError("could not allocate the native local-search memo")
        self._x = (ctypes.c_double * arity)()
        self._out = ctypes.c_double()
        self._fun = ctypes.c_double()
        self._nfev = ctypes.c_longlong()
        self._nit = ctypes.c_longlong()
        self._stats = (ctypes.c_longlong * len(_STATS_FIELDS))()

    def _context(self):
        ctx = self._ctx
        if ctx is None:
            raise ValueError("NativeObjective is closed")
        return ctx

    def _raise(self, status: int):
        if status == 1 and self._errors:
            error = self._errors.pop()
            self._errors.clear()
            raise error
        raise MemoryError("the native local-search memo could not grow")

    def __call__(self, x) -> float:
        ctx = self._context()
        try:
            self._x[:] = x
        except (TypeError, ValueError):
            return self.representing(x)
        status = self._lib.lm_eval(ctx, ctypes.addressof(self._x),
                                   ctypes.addressof(self._out))
        if status:
            self._raise(status)
        return self._out.value

    def seed(self, x, value) -> None:
        """Plant ``value`` for ``x`` without counting a hit or a miss
        (:meth:`BitPatternMemo.seed <repro.optimize.memo.BitPatternMemo.seed>`)."""
        ctx = self._context()
        try:
            self._x[:] = x
        except (TypeError, ValueError):
            return
        status = self._lib.lm_seed(ctx, ctypes.addressof(self._x), float(value))
        if status:
            self._raise(status)

    def powell(self, x0, max_iterations: int = 40, tol: float = 1e-12,
               step: float = 1.0) -> OptimizeResult:
        """:func:`~repro.optimize.local.powell.powell` from ``x0`` (a length-
        ``arity`` vector), run in one native call against this memo."""
        ctx = self._context()
        x = np.array(x0, dtype=np.float64)
        if x.shape != (self.arity,):
            raise ValueError(f"expected a vector of {self.arity} values, got shape {x.shape}")
        status = self._lib.lm_powell(
            ctx, x.ctypes.data, int(max_iterations), float(tol), float(step),
            ctypes.addressof(self._fun), ctypes.addressof(self._nfev),
            ctypes.addressof(self._nit),
        )
        if status:
            self._raise(status)
        fun = self._fun.value
        return OptimizeResult(
            x=x,
            fun=fun,
            nfev=self._nfev.value,
            nit=self._nit.value,
            success=True,
            message="powell converged" if fun == 0.0 else "powell finished",
        )

    def _counters(self):
        self._lib.lm_stats(self._context(), ctypes.addressof(self._stats))
        return self._stats

    def stats(self) -> dict[str, int]:
        """Hit/miss/evict counters plus the current and maximum size."""
        return dict(zip(_STATS_FIELDS, self._counters()))

    @property
    def hits(self) -> int:
        return self._counters()[0]

    @property
    def misses(self) -> int:
        return self._counters()[1]

    def close(self) -> None:
        """Free the C memo (idempotent)."""
        ctx, self._ctx = self._ctx, None
        if ctx is not None:
            self._lib.lm_free(ctx)


def native_objective(representing):
    """A :class:`NativeObjective` for one start, or ``None`` when the start
    runs the Python search: another profile, arity above
    :data:`MAX_ARITY`, or the kernel or the library not loaded (yet)."""
    if representing.profile is not ExecutionProfile.PENALTY_NATIVE \
            or representing.arity > MAX_ARITY:
        return None
    kernel = representing.native_kernel()
    if kernel is None:
        return None
    library = local_min_library()
    if library is None:
        return None
    return NativeObjective(representing, kernel, library)


__all__ = [
    "MAX_ARITY",
    "NativeObjective",
    "clear_local_min_library",
    "library_digest",
    "local_min_library",
    "native_objective",
]
