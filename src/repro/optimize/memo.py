"""Bit-pattern memoization of objective evaluations.

Basin hopping re-visits points: the accept/reject bookkeeping, restarted line
searches and the final re-evaluation of the best minimum all query the
objective at doubles it has already been evaluated at.  Because the
representing function is deterministic for a frozen saturation snapshot,
those repeats can be served from a cache keyed by the *bit patterns* of the
input doubles (``struct.pack``), which -- unlike keying by value -- is exact:
``-0.0`` and ``0.0`` stay distinct and NaNs are cacheable.

The memo is transparent to optimizers: wrapped and unwrapped objectives
return bit-identical values, so seeded search trajectories are unchanged;
only the number of true program executions drops.

Memory is bounded: the cache holds at most ``max_entries`` distinct points
and evicts in insertion (FIFO) order once full, so arbitrarily long
multi-start runs hold O(``max_entries``) memory per memo instead of growing
with the number of distinct points visited.  ``hits``/``misses``/
``evictions`` counters (see :meth:`BitPatternMemo.stats`) expose the cache's
behavior to diagnostics and benchmarks.
"""

from __future__ import annotations

import struct
from typing import Callable

#: Default bound on distinct cached points per memo (one memo lives for a
#: single basin-hopping launch, so this is ample and keeps memory O(1)).
DEFAULT_MAX_ENTRIES = 65536


class BitPatternMemo:
    """Memoizing wrapper around an objective ``R^arity -> R``.

    Args:
        func: The objective to wrap.  Must be deterministic for the
            lifetime of the memo (true for the representing function within
            one start, whose saturation snapshot is frozen).
        arity: Number of input doubles.
        max_entries: Cache bound; when full, the oldest entry is evicted for
            each new point (FIFO), so the memo's memory stays O(1) while hot
            repeats -- which cluster in time during a line search -- keep
            hitting.
    """

    __slots__ = (
        "func",
        "arity",
        "max_entries",
        "hits",
        "misses",
        "evictions",
        "_cache",
        "_pack",
    )

    def __init__(self, func: Callable, arity: int, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.func = func
        self.arity = arity
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._cache: dict[bytes, float] = {}
        self._pack = struct.Struct(f"={arity}d").pack

    def __call__(self, x) -> float:
        try:
            key = self._pack(*x)
        except (TypeError, struct.error):
            # Arity mismatch or non-numeric input: let the wrapped function
            # produce its own (possibly raising) behavior, uncached.
            return self.func(x)
        cache = self._cache
        value = cache.get(key)
        if value is not None:
            self.hits += 1
            return value
        value = self.func(x)
        self.misses += 1
        if len(cache) >= self.max_entries:
            # FIFO bound: dicts iterate in insertion order, so the first key
            # is the oldest point.
            del cache[next(iter(cache))]
            self.evictions += 1
        cache[key] = value
        return value

    def seed(self, x, value) -> None:
        """Insert a known value for ``x`` without calling the objective.

        Used by chunk priming: the engine computes a whole batch of first
        evaluations with one kernel call and plants them here so each
        start's optimizer opens on a cache hit.  Counts neither a hit nor a
        miss (the caller accounts for the batched execution itself).
        """
        try:
            key = self._pack(*x)
        except (TypeError, struct.error):
            return
        cache = self._cache
        if key not in cache and len(cache) >= self.max_entries:
            del cache[next(iter(cache))]
            self.evictions += 1
        cache[key] = float(value)

    def stats(self) -> dict[str, int]:
        """Hit/miss/evict counters plus the current and maximum size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._cache),
            "max_entries": self.max_entries,
        }

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
