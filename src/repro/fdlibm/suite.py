"""The 40-function Fdlibm benchmark suite of the paper (Table 2).

Each :class:`BenchmarkCase` binds one row of Table 2/3/5 to the Python port of
the corresponding entry function, together with the paper's reference numbers
so the experiment harnesses can print paper-vs-measured comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.fdlibm.e_acos import ieee754_acos
from repro.fdlibm.e_acosh import ieee754_acosh
from repro.fdlibm.e_asin import ieee754_asin
from repro.fdlibm.e_atan2 import ieee754_atan2
from repro.fdlibm.e_atanh import ieee754_atanh
from repro.fdlibm.e_cosh import ieee754_cosh
from repro.fdlibm.e_exp import ieee754_exp
from repro.fdlibm.e_fmod import ieee754_fmod
from repro.fdlibm.e_hypot import ieee754_hypot
from repro.fdlibm.e_j0 import ieee754_j0, ieee754_y0
from repro.fdlibm.e_j1 import ieee754_j1, ieee754_y1
from repro.fdlibm.e_log import ieee754_log
from repro.fdlibm.e_log10 import ieee754_log10
from repro.fdlibm.e_pow import ieee754_pow
from repro.fdlibm.e_rem_pio2 import ieee754_rem_pio2
from repro.fdlibm.e_remainder import ieee754_remainder
from repro.fdlibm.e_scalb import ieee754_scalb
from repro.fdlibm.e_sinh import ieee754_sinh
from repro.fdlibm.e_sqrt import ieee754_sqrt
from repro.fdlibm.k_cos import kernel_cos
from repro.fdlibm.k_sin import kernel_sin
from repro.fdlibm.k_tan import kernel_tan
from repro.fdlibm.s_asinh import fdlibm_asinh
from repro.fdlibm.s_atan import fdlibm_atan
from repro.fdlibm.s_cbrt import fdlibm_cbrt
from repro.fdlibm.s_ceil import fdlibm_ceil
from repro.fdlibm.s_cos import fdlibm_cos
from repro.fdlibm.s_erf import fdlibm_erf, fdlibm_erfc
from repro.fdlibm.s_expm1 import fdlibm_expm1
from repro.fdlibm.s_floor import fdlibm_floor
from repro.fdlibm.s_ilogb import fdlibm_ilogb
from repro.fdlibm.s_log1p import fdlibm_log1p
from repro.fdlibm.s_logb import fdlibm_logb
from repro.fdlibm.s_modf import fdlibm_modf
from repro.fdlibm.s_nextafter import fdlibm_nextafter
from repro.fdlibm.s_rint import fdlibm_rint
from repro.fdlibm.s_scalbn import fdlibm_scalbn
from repro.fdlibm.s_sin import fdlibm_sin
from repro.fdlibm.s_tan import fdlibm_tan
from repro.fdlibm.s_tanh import fdlibm_tanh


@dataclass(frozen=True)
class PaperReference:
    """Reference numbers reported by the paper for one benchmark function.

    ``None`` entries correspond to the paper's "timeout", "crash" or "n/a"
    cells of Table 3.
    """

    branches: int
    rand_branch: float
    afl_branch: float
    coverme_branch: float
    coverme_time: float
    austin_branch: Optional[float] = None
    austin_time: Optional[float] = None
    coverme_line: Optional[float] = None


#: Half-width of the default per-dimension input box (the signature box the
#: experiments have always used); cases that do not declare their own domain
#: sample starting points and random inputs from ``[-BOUND, BOUND]``.
DEFAULT_INPUT_BOUND = 1.0e6


@dataclass(frozen=True)
class BenchmarkCase:
    """One row of the paper's benchmark tables bound to its Python port.

    ``extras`` lists the helper callees whose branches the paper's Gcov
    numbers include ("Handling Function Calls", Sect. 5.3); they are handed
    to ``instrument(extra_functions=...)`` so their conditionals are labeled
    after the entry function's and counted in the same program.

    ``low``/``high`` optionally declare a per-case input domain for
    domain-sensitive entries (e.g. ``scalb``'s second argument is a binary
    exponent, ``pow``'s second argument overflows everything outside a
    narrow band); ``None`` keeps the historical
    ``[-DEFAULT_INPUT_BOUND, DEFAULT_INPUT_BOUND]`` box.  The domain reaches
    every sampler that reads the program signature's box: Rand's uniform
    inputs and Austin's random restarts (CoverMe's normal starts and AFL's
    byte-level mutation are box-free by construction).  It is also part of
    the run store's job fingerprint: changing it invalidates cached runs of
    the case.
    """

    file: str
    function: str
    entry: Callable = field(repr=False)
    arity: int
    paper: PaperReference
    extras: tuple[Callable, ...] = field(default=(), repr=False)
    low: Optional[tuple[float, ...]] = None
    high: Optional[tuple[float, ...]] = None

    @property
    def key(self) -> str:
        return f"{self.file}:{self.function}"

    def domain(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Per-dimension ``(low, high)`` sampling bounds for this case."""
        low = self.low if self.low is not None else tuple([-DEFAULT_INPUT_BOUND] * self.arity)
        high = self.high if self.high is not None else tuple([DEFAULT_INPUT_BOUND] * self.arity)
        if len(low) != self.arity or len(high) != self.arity:
            raise ValueError(f"domain bounds of {self.key} must match arity {self.arity}")
        return tuple(float(v) for v in low), tuple(float(v) for v in high)


def _case(file, function, entry, arity, *paper_values, extras=(), low=None, high=None) -> BenchmarkCase:
    return BenchmarkCase(
        file=file,
        function=function,
        entry=entry,
        arity=arity,
        paper=PaperReference(*paper_values),
        extras=tuple(extras),
        low=low,
        high=high,
    )


#: The full benchmark suite, in the order of Table 2.  Reference columns:
#: branches, Rand %, AFL %, CoverMe %, CoverMe time (s), Austin %, Austin
#: time (s), CoverMe line %.
BENCHMARKS: tuple[BenchmarkCase, ...] = (
    _case("e_acos.c", "ieee754_acos(double)", ieee754_acos, 1, 12, 16.7, 100.0, 100.0, 7.8, 16.7, 6058.8, 100.0),
    _case("e_acosh.c", "ieee754_acosh(double)", ieee754_acosh, 1, 10, 40.0, 100.0, 90.0, 2.3, 40.0, 2016.4, 93.3),
    _case("e_asin.c", "ieee754_asin(double)", ieee754_asin, 1, 14, 14.3, 85.7, 92.9, 8.0, 14.3, 6935.6, 100.0),
    _case("e_atan2.c", "ieee754_atan2(double,double)", ieee754_atan2, 2, 44, 34.1, 86.4, 63.6, 17.4, 34.1, 14456.0, 79.5),
    _case("e_atanh.c", "ieee754_atanh(double)", ieee754_atanh, 1, 12, 8.8, 75.0, 91.7, 8.1, 8.3, 4033.8, 100.0),
    _case("e_cosh.c", "ieee754_cosh(double)", ieee754_cosh, 1, 16, 37.5, 81.3, 93.8, 8.2, 37.5, 27334.5, 100.0),
    _case("e_exp.c", "ieee754_exp(double)", ieee754_exp, 1, 24, 20.8, 83.3, 96.7, 8.4, 75.0, 2952.1, 96.8),
    _case("e_fmod.c", "ieee754_fmod(double,double)", ieee754_fmod, 2, 60, 48.3, 53.3, 70.0, 22.1, None, None, 77.1),
    _case("e_hypot.c", "ieee754_hypot(double,double)", ieee754_hypot, 2, 22, 40.9, 54.5, 90.9, 15.6, 36.4, 5456.8, 100.0),
    _case("e_j0.c", "ieee754_j0(double)", ieee754_j0, 1, 18, 33.3, 88.9, 94.4, 9.0, 33.3, 6973.0, 100.0),
    _case("e_j0.c", "ieee754_y0(double)", ieee754_y0, 1, 16, 56.3, 75.0, 100.0, 0.7, 56.3, 5838.3, 100.0),
    _case("e_j1.c", "ieee754_j1(double)", ieee754_j1, 1, 16, 50.0, 75.0, 93.8, 10.2, 50.0, 4131.6, 100.0),
    _case("e_j1.c", "ieee754_y1(double)", ieee754_y1, 1, 16, 56.3, 75.0, 100.0, 0.7, 56.3, 5701.7, 100.0),
    _case("e_log.c", "ieee754_log(double)", ieee754_log, 1, 22, 59.1, 72.7, 90.9, 3.4, 59.1, 5109.0, 100.0),
    _case("e_log10.c", "ieee754_log10(double)", ieee754_log10, 1, 8, 62.5, 75.0, 87.5, 1.1, 62.5, 1175.5, 100.0),
    # pow's second argument is an exponent: |y| beyond ~1100 saturates every
    # finite x to overflow/underflow, so the search box keeps y in the band
    # where the algorithm's case ladder is actually exercised.
    _case("e_pow.c", "ieee754_pow(double,double)", ieee754_pow, 2, 114, 15.8, 88.6, 81.6, 18.8, None, None, 92.7, extras=(ieee754_sqrt,), low=(-1.0e6, -1100.0), high=(1.0e6, 1100.0)),
    _case("e_rem_pio2.c", "ieee754_rem_pio2(double,double*)", ieee754_rem_pio2, 1, 30, 33.3, 86.7, 93.3, 1.1, None, None, 92.2),
    _case("e_remainder.c", "ieee754_remainder(double,double)", ieee754_remainder, 2, 22, 45.5, 50.0, 100.0, 2.2, 45.5, 4629.0, 100.0),
    # scalb's second argument fn is a binary exponent; the guard ladder's
    # interesting thresholds (integrality, |fn| > 65000) all live within
    # +-70000, so the search box stays in that band instead of +-1e6.
    _case("e_scalb.c", "ieee754_scalb(double,double)", ieee754_scalb, 2, 14, 50.0, 42.9, 92.9, 8.5, 57.1, 1989.8, 100.0, extras=(fdlibm_rint, fdlibm_scalbn), low=(-1.0e6, -70000.0), high=(1.0e6, 70000.0)),
    _case("e_sinh.c", "ieee754_sinh(double)", ieee754_sinh, 1, 20, 35.0, 70.0, 95.0, 0.6, 35.0, 5534.8, 100.0),
    _case("e_sqrt.c", "ieee754_sqrt(double)", ieee754_sqrt, 1, 46, 69.6, 71.7, 82.6, 15.6, None, None, 94.1),
    _case("k_cos.c", "kernel_cos(double,double)", kernel_cos, 2, 8, 37.5, 87.5, 87.5, 15.4, 37.5, 1885.1, 100.0),
    _case("s_asinh.c", "asinh(double)", fdlibm_asinh, 1, 12, 41.7, 83.3, 91.7, 8.4, 41.7, 2439.1, 100.0),
    _case("s_atan.c", "atan(double)", fdlibm_atan, 1, 26, 19.2, 15.4, 88.5, 8.5, 26.9, 7584.7, 96.4),
    _case("s_cbrt.c", "cbrt(double)", fdlibm_cbrt, 1, 6, 50.0, 66.7, 83.3, 0.4, 50.0, 3583.4, 91.7),
    _case("s_ceil.c", "ceil(double)", fdlibm_ceil, 1, 30, 10.0, 83.3, 83.3, 8.8, 36.7, 7166.3, 100.0),
    _case("s_cos.c", "cos(double)", fdlibm_cos, 1, 8, 75.0, 87.5, 100.0, 0.4, 75.0, 669.4, 100.0, extras=(kernel_cos, kernel_sin, ieee754_rem_pio2)),
    _case("s_erf.c", "erf(double)", fdlibm_erf, 1, 20, 30.0, 85.0, 100.0, 9.0, 30.0, 28419.8, 100.0),
    _case("s_erf.c", "erfc(double)", fdlibm_erfc, 1, 24, 25.0, 79.2, 100.0, 0.1, 25.0, 6611.8, 100.0),
    _case("s_expm1.c", "expm1(double)", fdlibm_expm1, 1, 42, 21.4, 85.7, 97.6, 1.1, None, None, 100.0),
    _case("s_floor.c", "floor(double)", fdlibm_floor, 1, 30, 10.0, 83.3, 83.3, 10.1, 36.7, 7620.6, 100.0),
    _case("s_ilogb.c", "ilogb(double)", fdlibm_ilogb, 1, 12, 16.7, 16.7, 75.0, 8.3, 16.7, 3654.7, 91.7),
    _case("s_log1p.c", "log1p(double)", fdlibm_log1p, 1, 36, 38.9, 77.8, 88.9, 9.9, 61.1, 11913.7, 100.0),
    _case("s_logb.c", "logb(double)", fdlibm_logb, 1, 6, 50.0, 16.7, 83.3, 0.3, 50.0, 1064.4, 87.5),
    _case("s_modf.c", "modf(double,double*)", fdlibm_modf, 1, 10, 33.3, 80.0, 100.0, 3.5, 50.0, 1795.1, 100.0),
    _case("s_nextafter.c", "nextafter(double,double)", fdlibm_nextafter, 2, 44, 59.1, 65.9, 79.6, 17.5, 50.0, 7777.3, 88.9),
    _case("s_rint.c", "rint(double)", fdlibm_rint, 1, 20, 15.0, 75.0, 90.0, 3.0, 35.0, 5355.8, 100.0),
    _case("s_sin.c", "sin(double)", fdlibm_sin, 1, 8, 75.0, 87.5, 100.0, 0.3, 75.0, 667.1, 100.0, extras=(kernel_sin, kernel_cos, ieee754_rem_pio2)),
    _case("s_tan.c", "tan(double)", fdlibm_tan, 1, 4, 50.0, 75.0, 100.0, 0.3, 50.0, 704.2, 100.0, extras=(kernel_tan, ieee754_rem_pio2)),
    _case("s_tanh.c", "tanh(double)", fdlibm_tanh, 1, 12, 33.3, 75.0, 100.0, 0.7, 33.3, 2805.5, 100.0),
)

_BY_KEY = {case.key: case for case in BENCHMARKS}

# Bare C function name ("ieee754_sqrt", "atan") plus the Python entry point's
# name ("fdlibm_atan"); first registration wins so the C names stay canonical.
_BY_FUNCTION: dict[str, BenchmarkCase] = {}
for _bench_case in BENCHMARKS:
    _BY_FUNCTION.setdefault(_bench_case.function.split("(")[0], _bench_case)
    _BY_FUNCTION.setdefault(_bench_case.entry.__name__, _bench_case)
del _bench_case


def iter_cases(limit: Optional[int] = None) -> Iterator[BenchmarkCase]:
    """Iterate over the suite (optionally only the first ``limit`` cases)."""
    for index, case in enumerate(BENCHMARKS):
        if limit is not None and index >= limit:
            return
        yield case


def get_case(name: str) -> BenchmarkCase:
    """Look up a case by ``"file:function"`` key, bare C name or entry name."""
    if name in _BY_KEY:
        return _BY_KEY[name]
    if name in _BY_FUNCTION:
        return _BY_FUNCTION[name]
    raise KeyError(f"unknown benchmark {name!r}")


def case_by_key(key: str) -> BenchmarkCase:
    """Strict lookup by ``"file:function"`` key (the run store's case id)."""
    try:
        return _BY_KEY[key]
    except KeyError:
        raise KeyError(f"unknown benchmark case key {key!r}") from None


#: Mean values of the paper's headline comparison (last rows of Tables 2/3).
PAPER_MEANS = {
    "rand_branch": 38.0,
    "afl_branch": 72.9,
    "coverme_branch": 90.8,
    "austin_branch": 42.8,
    "coverme_time": 6.9,
    "austin_time": 6058.4,
    "coverme_line": 97.0,
    "afl_line": 87.0,
    "rand_line": 54.2,
}
