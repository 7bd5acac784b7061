"""Common result record returned by the local minimizer and basin hopping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_F64 = np.dtype(np.float64)


@dataclass
class OptimizeResult:
    """Outcome of one minimization run.

    Attributes:
        x: The minimum point found (always a 1-D numpy array).
        fun: Objective value at ``x``.
        nfev: Number of objective evaluations performed.
        nit: Number of iterations of the outer loop.
        success: Whether the optimizer considers the run successful.
        message: Human-readable status.
    """

    x: np.ndarray
    fun: float
    nfev: int = 0
    nit: int = 0
    success: bool = True
    message: str = ""

    def __post_init__(self) -> None:
        x = self.x
        if x.__class__ is not np.ndarray or x.dtype is not _F64 or x.ndim != 1:
            self.x = np.atleast_1d(np.asarray(x, dtype=float))
        self.fun = float(self.fun)

    def better_than(self, other: "OptimizeResult") -> bool:
        """Strictly smaller objective value than ``other``."""
        return self.fun < other.fun


def evaluate_counted(func):
    """Wrap ``func`` so evaluations are counted; returns ``(wrapped, counter)``.

    The counter is a single-element list so the closure can mutate it.
    """
    counter = [0]

    def wrapped(x):
        counter[0] += 1
        return func(x)

    return wrapped, counter
