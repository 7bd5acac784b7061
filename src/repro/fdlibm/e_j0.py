"""Port of Fdlibm 5.3 ``e_j0.c``: Bessel functions ``j0`` and ``y0``.

The interval dispatch and all conditionals of the original are preserved.
The rational-approximation leaves (``pzero``/``qzero`` and the small-argument
polynomials) are straight-line code in the original; the port takes those
leaf values from the C library's ``j0``/``y0`` (:mod:`repro.fdlibm.bessel`),
which in glibc and FreeBSD msun descend from this very file.  The leaves
used to come from ``scipy.special`` (cephes), whose values differ from the C
library's in their low bits at most points, so the return values of
``ieee754_j0``/``ieee754_y0`` changed in their low bits.  No branch reads a
leaf: covered branches, branch distances and search results did not change.
"""

from __future__ import annotations

from repro.fdlibm import bessel as _special
from repro.fdlibm.bits import fabs, high_word, low_word
from repro.fdlibm.e_log import ieee754_log
from repro.fdlibm.e_sqrt import ieee754_sqrt
from repro.fdlibm.s_cos import fdlibm_cos
from repro.fdlibm.s_sin import fdlibm_sin

ONE = 1.0
ZERO = 0.0
HUGE = 1.0e300
INVSQRTPI = 5.64189583547756279280e-01
TPI = 6.36619772367581382433e-01  # 2/pi


def ieee754_j0(x: float) -> float:
    """``__ieee754_j0(x)``: Bessel function of the first kind, order 0."""
    hx = high_word(x)
    ix = hx & 0x7FFFFFFF
    if ix >= 0x7FF00000:  # j0(NaN) = NaN, j0(+-inf) = 0
        return ONE / (x * x)
    x = fabs(x)
    if ix >= 0x40000000:  # |x| >= 2.0
        s = fdlibm_sin(x)
        c = fdlibm_cos(x)
        ss = s - c
        cc = s + c
        if ix < 0x7FE00000:  # make sure x+x does not overflow
            z = -fdlibm_cos(x + x)
            if (s * c) < ZERO:
                cc = z / ss
            else:
                ss = z / cc
        # j0(x) = 1/sqrt(pi) * (P(0,x)*cc - Q(0,x)*ss) / sqrt(x)
        if ix > 0x48000000:  # |x| > 2**129: P -> 1, Q -> 0
            z = (INVSQRTPI * cc) / ieee754_sqrt(x)
        else:
            z = float(_special.j0(x))  # leaf value of the pzero/qzero formula
        return z
    if ix < 0x3F200000:  # |x| < 2**-13
        if HUGE + x > ONE:  # raise inexact if x != 0
            if ix < 0x3E400000:  # |x| < 2**-27
                return ONE
            return ONE - 0.25 * x * x
    z = x * x
    rational = float(_special.j0(x))  # leaf value of the R/S rational form
    if ix < 0x3FF00000:  # |x| < 1.0
        return rational
    u = 0.5 * x
    return (ONE + u) * (ONE - u) + (rational - (ONE + u) * (ONE - u))


def ieee754_y0(x: float) -> float:
    """``__ieee754_y0(x)``: Bessel function of the second kind, order 0."""
    hx = high_word(x)
    ix = 0x7FFFFFFF & hx
    lx = low_word(x)
    if ix >= 0x7FF00000:  # y0(NaN) = NaN, y0(inf) = 0
        return ONE / (x + x * x)
    if (ix | lx) == 0:  # y0(0) = -inf
        return float("-inf")
    if hx < 0:  # y0(x < 0) = NaN
        return float("nan")
    if ix >= 0x40000000:  # |x| >= 2.0
        s = fdlibm_sin(x)
        c = fdlibm_cos(x)
        ss = s - c
        cc = s + c
        if ix < 0x7FE00000:  # make sure x+x does not overflow
            z = -fdlibm_cos(x + x)
            if (s * c) < ZERO:
                cc = z / ss
            else:
                ss = z / cc
        if ix > 0x48000000:  # |x| > 2**129
            z = (INVSQRTPI * ss) / ieee754_sqrt(x)
        else:
            z = float(_special.y0(x))  # leaf value of the pzero/qzero formula
        return z
    if ix <= 0x3E400000:  # x < 2**-27
        return float(_special.y0(x)) if x > 0.0 else float("-inf")
    rational = float(_special.y0(x)) - TPI * ieee754_j0(x) * ieee754_log(x)
    return rational + TPI * (ieee754_j0(x) * ieee754_log(x))
