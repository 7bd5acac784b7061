"""One-dimensional minimization used by the direction-set methods.

The representing functions produced by CoverMe are piecewise combinations of
constants and quadratics whose interesting features may live at very different
scales (a threshold on the exponent of a double can require travelling from
``1.0`` to ``1e300``).  The line search therefore uses an aggressive geometric
bracket expansion with no artificial bound on the travelled distance, followed
by golden-section refinement inside the bracket.
"""

from __future__ import annotations

import math
from typing import Callable

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # ~0.618


def bracket_minimum(
    func: Callable[[float], float],
    t0: float = 0.0,
    step: float = 1.0,
    grow: float = 3.0,
    max_expansions: int = 700,
) -> tuple[float, float, float, int]:
    """Find ``a < b < c`` with ``f(b) <= f(a)`` and ``f(b) <= f(c)``.

    Starts at ``t0`` and expands geometrically in the descending direction.
    Returns ``(a, b, c, nfev)``.  If the function keeps decreasing until the
    positions overflow, the last finite triple is returned -- the caller still
    refines within it, and overflowing to ``inf`` is itself a valid probe
    (it is how branches guarded by the infinity bit-pattern get covered).
    """
    nfev = 0

    def f(t: float) -> float:
        nonlocal nfev
        nfev += 1
        value = func(t)
        return math.inf if value != value else value

    fa = f(t0)
    t_right = t0 + step
    fr = f(t_right)
    t_left = t0 - step
    fl = f(t_left)

    if fa <= fr and fa <= fl:
        return t_left, t0, t_right, nfev

    if fr < fl:
        direction = 1.0
        prev, cur = t0, t_right
        f_prev, f_cur = fa, fr
    else:
        direction = -1.0
        prev, cur = t0, t_left
        f_prev, f_cur = fa, fl

    width = step
    for _ in range(max_expansions):
        width *= grow
        nxt = cur + direction * width
        if math.isnan(nxt):
            break
        f_nxt = f(nxt)
        if f_nxt >= f_cur:
            lo, hi = sorted((prev, nxt))
            return lo, cur, hi, nfev
        prev, cur = cur, nxt
        f_prev, f_cur = f_cur, f_nxt
        if math.isinf(cur):
            break
    lo, hi = sorted((prev, cur))
    mid = cur if f_cur <= f_prev else prev
    return lo, mid, hi, nfev


def golden_section(
    func: Callable[[float], float],
    low: float,
    high: float,
    tol: float = 1e-12,
    max_iterations: int = 120,
) -> tuple[float, float, int]:
    """Golden-section search on ``[low, high]``; returns ``(t*, f(t*), nfev)``."""
    nfev = 0

    def f(t: float) -> float:
        nonlocal nfev
        nfev += 1
        value = func(t)
        return math.inf if value != value else value

    a, b = float(low), float(high)
    if not math.isfinite(a):
        a = math.copysign(1.0e308, a)
    if not math.isfinite(b):
        b = math.copysign(1.0e308, b)
    if a > b:
        a, b = b, a
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best_t, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(max_iterations):
        if best_f == 0.0:
            break
        if abs(b - a) <= tol * (abs(a) + abs(b) + 1e-300):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if fc < best_f:
            best_t, best_f = c, fc
        if fd < best_f:
            best_t, best_f = d, fd
    return best_t, best_f, nfev


def minimize_scalar(
    func: Callable[[float], float],
    t0: float = 0.0,
    step: float = 1.0,
    tol: float = 1e-12,
    max_iterations: int = 120,
) -> tuple[float, float, int]:
    """Bracket then refine a 1-D minimum; returns ``(t*, f(t*), nfev)``.

    The endpoints of the bracket are also candidates: when the minimum sits at
    an overflowed position (``inf``), that position wins.
    """
    low, mid, high, nfev_bracket = bracket_minimum(func, t0=t0, step=step)
    candidates = []
    for t in (low, mid, high):
        value = func(t)
        candidates.append((t, math.inf if value != value else value))
    nfev = nfev_bracket + 3
    best_t, best_f = min(candidates, key=lambda item: item[1])
    if best_f > 0.0 and math.isfinite(low) and math.isfinite(high) and low < high:
        t_ref, f_ref, nfev_ref = golden_section(
            func, low, high, tol=tol, max_iterations=max_iterations
        )
        nfev += nfev_ref
        if f_ref < best_f:
            best_t, best_f = t_ref, f_ref
    return best_t, best_f, nfev
