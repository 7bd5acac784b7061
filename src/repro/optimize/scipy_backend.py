"""Adapter around SciPy's Basinhopping (the paper's actual backend, Sect. 5.2).

CoverMe's theoretical guarantee lets any unconstrained-programming algorithm
be used as a black box; the paper uses ``scipy.optimize.basinhopping`` with
Powell as the local minimizer.  This adapter reproduces that configuration
behind the same interface as our built-in implementation so the two can be
swapped with ``CoverMeConfig(backend="scipy")``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.optimize.result import OptimizeResult


def scipy_basinhopping(
    func: Callable,
    x0,
    n_iter: int = 5,
    local_minimizer: str = "Powell",
    step_size: float = 1.0,
    temperature: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    callback: Optional[Callable[[np.ndarray, float, bool], bool]] = None,
    local_options: Optional[dict] = None,
) -> OptimizeResult:
    """Run ``scipy.optimize.basinhopping`` with the paper's configuration."""
    # Imported here: scipy.optimize doubles the resident size of every
    # process that imports the engine, and only this backend uses it.
    from scipy import optimize as _scipy_optimize

    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    seed = None
    if rng is not None:
        seed = int(rng.integers(0, 2**31 - 1))

    method = local_minimizer
    if method.lower() in ("powell",):
        method = "Powell"
    elif method.lower() in ("nelder-mead", "nelder_mead"):
        method = "Nelder-Mead"

    def wrapped(x):
        value = func(np.atleast_1d(x))
        return float(value)

    def scipy_callback(x, f, accept):
        if callback is None:
            return False
        return bool(callback(np.atleast_1d(np.asarray(x, dtype=float)), float(f), bool(accept)))

    minimizer_kwargs = {"method": method}
    if local_options:
        options = dict(local_options)
        # Translate our local-minimizer option names into SciPy's.
        if "max_iterations" in options:
            options["maxiter"] = options.pop("max_iterations")
        minimizer_kwargs["options"] = options

    result = _scipy_optimize.basinhopping(
        wrapped,
        x0,
        niter=n_iter,
        T=temperature,
        stepsize=step_size,
        minimizer_kwargs=minimizer_kwargs,
        callback=scipy_callback,
        seed=seed,
    )
    return OptimizeResult(
        x=np.atleast_1d(np.asarray(result.x, dtype=float)),
        fun=float(result.fun),
        nfev=int(getattr(result, "nfev", 0)),
        nit=int(getattr(result, "nit", n_iter)),
        success=True,
        message=str(getattr(result, "message", "")),
    )
