"""Start-point scheduling for the multi-start search (Algorithm 1, line 9).

Algorithm 1 draws every starting point from an isotropic normal
distribution, ``x0 ~ N(0, START_SCALE^2)``.

Determinism contract: point ``i`` of a run depends only on ``(root_seed,
i)``.  Nothing depends on where batch boundaries fall, which is what makes
seeded runs reproducible.
"""

from __future__ import annotations

import numpy as np
from numpy.random import default_rng

from repro.instrument.signature import ProgramSignature

#: Sub-stream tag keeping the scheduler's draws disjoint from the workers'.
_STREAM_NORMAL = 101

#: Standard deviation of the starting points.
START_SCALE = 10.0


class StartScheduler:
    """Produces seeded batches of starting points for the search engine.

    Args:
        signature: Input-domain description of the program under test
            (supplies the arity).
        root_seed: Root of the deterministic seed tree.  Every point is drawn
            from its own :func:`numpy.random.default_rng` sub-stream so the
            sequence is independent of execution order.
    """

    def __init__(self, signature: ProgramSignature, root_seed: int = 0):
        self.signature = signature
        self.root_seed = int(root_seed)

    @property
    def arity(self) -> int:
        return self.signature.arity

    def batch(self, first_index: int, count: int) -> np.ndarray:
        """Return a ``(count, arity)`` array of starting points.

        ``first_index`` is the global index of the batch's first start; the
        sub-streams are keyed on it, so batch boundaries do not change the
        points.
        """
        points = np.empty((count, self.arity), dtype=float)
        for offset in range(count):
            rng = default_rng([self.root_seed, _STREAM_NORMAL, first_index + offset])
            points[offset] = rng.normal(scale=START_SCALE, size=self.arity)
        return points
