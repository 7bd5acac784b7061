"""Port of Fdlibm 5.3 ``e_j1.c``: Bessel functions ``j1`` and ``y1``.

Same porting convention as :mod:`repro.fdlibm.e_j0`: every conditional of the
original is preserved; straight-line rational-approximation leaves are the
C library's ``j1``/``y1`` (:mod:`repro.fdlibm.bessel`).  They replaced
``scipy.special``'s values, which differ in their low bits, so the return
values of ``ieee754_j1``/``ieee754_y1`` changed there; no branch reads a
leaf, so covered branches and search results did not.
"""

from __future__ import annotations

from repro.fdlibm import bessel as _special
from repro.fdlibm.bits import fabs, high_word, low_word
from repro.fdlibm.e_sqrt import ieee754_sqrt
from repro.fdlibm.s_cos import fdlibm_cos
from repro.fdlibm.s_sin import fdlibm_sin

ONE = 1.0
ZERO = 0.0
HUGE = 1.0e300
INVSQRTPI = 5.64189583547756279280e-01


def ieee754_j1(x: float) -> float:
    """``__ieee754_j1(x)``: Bessel function of the first kind, order 1."""
    hx = high_word(x)
    ix = hx & 0x7FFFFFFF
    if ix >= 0x7FF00000:  # j1(NaN) = NaN, j1(+-inf) = 0
        return ONE / x
    y = fabs(x)
    if ix >= 0x40000000:  # |x| >= 2.0
        s = fdlibm_sin(y)
        c = fdlibm_cos(y)
        ss = -s - c
        cc = s - c
        if ix < 0x7FE00000:  # make sure y+y does not overflow
            z = fdlibm_cos(y + y)
            if (s * c) > ZERO:
                cc = z / ss
            else:
                ss = z / cc
        # j1(x) = 1/sqrt(pi) * (P(1,x)*cc - Q(1,x)*ss) / sqrt(x)
        if ix > 0x48000000:  # |x| > 2**129
            z = (INVSQRTPI * cc) / ieee754_sqrt(y)
        else:
            z = float(_special.j1(y))  # leaf value of the pone/qone formula
        if hx < 0:
            return -z
        return z
    if ix < 0x3E400000:  # |x| < 2**-27
        if HUGE + x > ONE:  # inexact if x != 0
            return 0.5 * x
    return float(_special.j1(x))  # leaf value of the r/s rational form


def ieee754_y1(x: float) -> float:
    """``__ieee754_y1(x)``: Bessel function of the second kind, order 1."""
    hx = high_word(x)
    ix = 0x7FFFFFFF & hx
    lx = low_word(x)
    if ix >= 0x7FF00000:  # y1(NaN) = NaN, y1(inf) = 0
        return ONE / (x + x * x)
    if (ix | lx) == 0:  # y1(0) = -inf
        return float("-inf")
    if hx < 0:  # y1(x < 0) = NaN
        return float("nan")
    if ix >= 0x40000000:  # |x| >= 2.0
        s = fdlibm_sin(x)
        c = fdlibm_cos(x)
        ss = -s - c
        cc = s - c
        if ix < 0x7FE00000:  # make sure x+x does not overflow
            z = fdlibm_cos(x + x)
            if (s * c) > ZERO:
                cc = z / ss
            else:
                ss = z / cc
        if ix > 0x48000000:  # |x| > 2**129
            z = (INVSQRTPI * ss) / ieee754_sqrt(x)
        else:
            z = float(_special.y1(x))  # leaf value of the pone/qone formula
        return z
    if ix <= 0x3C900000:  # x < 2**-54
        return float("-inf") if x == 0.0 else float(_special.y1(x))
    return float(_special.y1(x))  # leaf value of the u/v rational form
