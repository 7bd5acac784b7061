"""Start-point scheduling for the multi-start search (Algorithm 1, line 9).

Algorithm 1 draws every starting point from an isotropic normal
distribution, ``x0 ~ N(0, START_SCALE^2)``.

Determinism contract: point ``i`` of a run depends only on ``(root_seed,
i)``.  Nothing depends on where batch boundaries fall, which is what makes
seeded runs reproducible.  A process draws each point once: the rows are
memoized on ``(root_seed, i, arity)``, so the runs of every case under the
same seed share them, bit-identical to a fresh draw.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random import default_rng

from repro.instrument.signature import ProgramSignature

#: Sub-stream tag keeping the scheduler's draws disjoint from the workers'.
_STREAM_NORMAL = 101

#: Standard deviation of the starting points.
START_SCALE = 10.0

#: Drawn rows a process keeps (about 1.2 MB when full): every start of one
#: seed of the ``full`` profile (``n_start`` 500) at each suite arity.
_DRAWS_MAX = 4096


@lru_cache(maxsize=_DRAWS_MAX)
def _draw(root_seed: int, index: int, arity: int) -> tuple[float, ...]:
    """Point ``index`` of the run seeded ``root_seed``, from its own
    :func:`numpy.random.default_rng` sub-stream (about 25 microseconds to
    seed, which is why it is memoized)."""
    rng = default_rng([root_seed, _STREAM_NORMAL, index])
    return tuple(rng.normal(scale=START_SCALE, size=arity).tolist())


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
        root_seed, arity = self.root_seed, self.arity
        rows = [_draw(root_seed, index, arity)
                for index in range(first_index, first_index + count)]
        return np.array(rows, dtype=float).reshape(count, arity)
