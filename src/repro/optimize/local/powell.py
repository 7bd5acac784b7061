"""Powell's conjugate-direction method (the paper's local minimizer ``LM``).

Powell's method minimizes a function of ``n`` variables without derivatives
by repeatedly performing one-dimensional minimizations along a set of
directions, replacing one direction per sweep by the overall displacement
(Press et al., *Numerical Recipes*).  It is the ``LM = "powell"`` setting the
paper uses inside basin-hopping.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# A module import: local_min imports this package back, so its names are
# looked up at call time.
from repro.instrument.native import local_min
from repro.optimize.local.line_search import minimize_scalar
from repro.optimize.result import OptimizeResult


def powell(
    func: Callable,
    x0,
    max_iterations: int = 40,
    tol: float = 1e-12,
    step: float = 1.0,
    **_options,
) -> OptimizeResult:
    """Minimize ``func`` starting from ``x0`` with Powell's method.

    Args:
        func: Objective ``R^n -> R`` (receives a 1-D numpy array).
        x0: Starting point.
        max_iterations: Maximum number of direction-set sweeps.
        tol: Relative decrease threshold used as the convergence test.
        step: Initial step used by the 1-D line searches.

    Returns:
        An :class:`~repro.optimize.result.OptimizeResult`.

    A :class:`~repro.instrument.native.local_min.NativeObjective` runs the
    whole search in one native call, bit-identical to the loop below.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if isinstance(func, local_min.NativeObjective) and x.shape == (func.arity,):
        return func.powell(x, max_iterations=max_iterations, tol=tol, step=step)
    n = x.size
    directions = [np.eye(n)[i] for i in range(n)]
    nfev = 0

    def evaluate(point: np.ndarray) -> float:
        nonlocal nfev
        nfev += 1
        value = func(point)
        return math.inf if math.isnan(value) else float(value)

    f_current = evaluate(x)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if f_current == 0.0:
            break
        f_start = f_current
        x_start = x.copy()
        largest_decrease = 0.0
        largest_index = 0
        for index, direction in enumerate(directions):
            f_before = f_current

            def along(t: float, d=direction) -> float:
                return evaluate(x + t * d)

            t_best, f_best, used = minimize_scalar(along, t0=0.0, step=step)
            if f_best < f_current:
                x = x + t_best * direction
                f_current = f_best
            decrease = f_before - f_current
            if decrease > largest_decrease:
                largest_decrease = decrease
                largest_index = index
        if f_current == 0.0:
            break
        # Direction replacement step of Powell's method.
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(x_start))):
            break
        displacement = x - x_start
        if np.any(displacement != 0.0) and np.all(np.isfinite(displacement)):
            with np.errstate(over="ignore", invalid="ignore"):
                extrapolated = x + displacement
                norm = float(np.sqrt(np.sum(np.square(displacement / max(np.max(np.abs(displacement)), 1.0)))))
                norm *= float(np.max(np.abs(displacement)))
            if np.all(np.isfinite(extrapolated)):
                f_extrapolated = evaluate(extrapolated)
                if f_extrapolated < f_start:
                    if norm > 0.0 and math.isfinite(norm):
                        directions[largest_index] = displacement / norm
        if f_start - f_current <= tol * (abs(f_start) + tol):
            break

    return OptimizeResult(
        x=x,
        fun=f_current,
        nfev=nfev,
        nit=iterations,
        success=True,
        message="powell converged" if f_current == 0.0 else "powell finished",
    )
