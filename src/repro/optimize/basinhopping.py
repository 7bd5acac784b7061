"""MCMC basin-hopping: the global optimizer of Algorithm 1 (lines 24-34).

The procedure first descends to a local minimum ``x_L`` with the configured
local minimizer ``LM``, then alternates Monte-Carlo moves (a random
perturbation followed by local minimization) with Metropolis acceptance.  The
best point ever visited is returned.  A ``callback`` may stop the loop early;
CoverMe uses it to terminate as soon as a zero of the representing function is
found (Sect. 5.2).  A caller that has already run the first descent (the
engine does, so a start that stops there never enters this loop) passes its
result as ``first``: the loop continues from it exactly as if it had run the
descent itself.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.optimize.local import get_local_minimizer
from repro.optimize.mcmc import metropolis_accept, propose_perturbation
from repro.optimize.result import OptimizeResult


def basinhopping(
    func: Callable,
    x0,
    n_iter: int = 5,
    local_minimizer: str | Callable = "powell",
    step_size: float = 1.0,
    temperature: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    callback: Optional[Callable[[np.ndarray, float, bool], bool]] = None,
    local_options: Optional[dict] = None,
    first: Optional[OptimizeResult] = None,
) -> OptimizeResult:
    """Minimize ``func`` with MCMC basin-hopping (Algorithm 1, lines 24-34).

    Args:
        func: Objective function ``R^n -> R``.  Callers that want repeated
            points served from a cache wrap it in a
            :class:`~repro.optimize.memo.BitPatternMemo` first, as the
            engine does.
        x0: Starting point.
        n_iter: Number of Monte-Carlo iterations (the paper uses 5).
        local_minimizer: Name of a registered local minimizer or a callable
            with the same interface.
        step_size: Scale of the Monte-Carlo perturbation.
        temperature: Metropolis annealing temperature ``T`` (the paper uses 1).
        rng: Source of randomness (a fresh default generator when omitted).
        callback: Called after every iteration with ``(x, f, accepted)``;
            returning ``True`` stops the loop (the paper's ``call_back``).
        local_options: Extra keyword options forwarded to the local minimizer.
        first: The result of line 25's descent from ``x0``, already run
            with the same minimizer and options; the loop starts from it
            instead of descending again (``x0`` is then not read).

    Returns:
        The best :class:`~repro.optimize.result.OptimizeResult` seen.
    """
    rng = rng if rng is not None else np.random.default_rng()
    minimize = (
        local_minimizer
        if callable(local_minimizer)
        else get_local_minimizer(local_minimizer)
    )
    options = dict(local_options or {})

    # Line 25: descend to the first local minimum.
    local = first if first is not None else minimize(
        func, np.atleast_1d(np.asarray(x0, dtype=float)), **options)
    nfev = local.nfev
    x_current = local.x
    f_current = local.fun
    best_x, best_f = x_current.copy(), f_current

    stopped_early = False
    iterations = 0
    if callback is not None and callback(best_x, best_f, True):
        stopped_early = True

    while not stopped_early and iterations < n_iter:
        iterations += 1
        # Lines 27-28: Monte-Carlo move followed by local minimization.
        perturbed = propose_perturbation(rng, x_current, step_size=step_size)
        proposal = minimize(func, perturbed, **options)
        nfev += proposal.nfev
        # Lines 29-33: Metropolis acceptance.
        accepted = metropolis_accept(rng, f_current, proposal.fun, temperature=temperature)
        if accepted:
            x_current, f_current = proposal.x, proposal.fun
        if proposal.fun < best_f or (proposal.fun == best_f and not math.isfinite(best_f)):
            best_x, best_f = proposal.x.copy(), proposal.fun
        if callback is not None and callback(proposal.x, proposal.fun, accepted):
            stopped_early = True

    return OptimizeResult(
        x=best_x,
        fun=best_f,
        nfev=nfev,
        nit=iterations,
        success=True,
        message="stopped by callback" if stopped_early else "completed all iterations",
    )
