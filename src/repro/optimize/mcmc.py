"""Monte-Carlo ingredients of the basin-hopping loop (Sect. 2, Sect. 4).

Basin-hopping is an MCMC sampling over the space of local minimum points
(Li & Scheraga; Leitner et al.).  Its two ingredients are the random
perturbation ("Monte-Carlo move", Algorithm 1 line 27) and the
Metropolis-Hastings acceptance test (lines 29-32).
"""

from __future__ import annotations

import math

import numpy as np


def propose_perturbation(
    rng: np.random.Generator, x: np.ndarray, step_size: float = 1.0
) -> np.ndarray:
    """Draw the random perturbation ``delta`` of Algorithm 1, line 27.

    The perturbation is Gaussian with a scale proportional to
    ``step_size * (1 + |x|)`` per coordinate: the relative component lets the
    chain explore the wide dynamic ranges floating-point inputs live on, while
    the absolute component keeps the chain moving near zero.  A non-finite
    coordinate restarts from 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # Scalar floats, one coordinate at a time: on points of a few
    # coordinates numpy's per-call overhead dwarfs the arithmetic, and each
    # IEEE operation rounds the same either way.
    z = rng.normal(size=x.size).tolist()
    moved = []
    for value, dz in zip(x.ravel().tolist(), z):
        base = value if math.isfinite(value) else 0.0
        moved.append(base + dz * (step_size * (1.0 + abs(base))))
    return np.array(moved).reshape(x.shape)


def metropolis_accept(
    rng: np.random.Generator, f_current: float, f_proposed: float, temperature: float = 1.0
) -> bool:
    """Metropolis-Hastings acceptance test (Algorithm 1, lines 29-32).

    A strictly better proposal is always accepted; a worse one is accepted
    with probability ``exp((f_current - f_proposed) / T)``.
    """
    if math.isnan(f_proposed):
        return False
    if f_proposed < f_current:
        return True
    if temperature <= 0.0:
        return False
    gap = f_current - f_proposed
    try:
        threshold = math.exp(gap / temperature)
    except OverflowError:  # pragma: no cover - gap <= 0 so exp never overflows
        threshold = 0.0
    return bool(rng.uniform(0.0, 1.0) < threshold)
