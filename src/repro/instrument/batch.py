"""Batched penalty kernels: one call evaluates ``N`` starts.

A **batched kernel** is a callable taking an ``(N, arity)`` float64 array
and returning the ``(N,)`` penalty vector ``r``.  It is a tight per-row loop
over the program's cached
:class:`~repro.instrument.program.SpecializedVariant`, so ``r`` is
literally the scalar ``PENALTY_SPECIALIZED`` tier's execution and
**bit-identical row-for-row** with it (property-tested in
``tests/test_batch.py``).  The loop only amortizes the per-call wrapper
overhead: the engine batches one chunk of x0 vectors (a handful of rows),
where a per-row loop beats any whole-array interpreter.
"""

from __future__ import annotations

import numpy as np

from repro.instrument.specialize import R_NAME

#: Exceptions the scalar tiers swallow; the row keeps the ``r`` it had.
_SWALLOWED = (ArithmeticError, ValueError, OverflowError)


class BatchKernel:
    """One batched evaluator bound to a program's specialized variant.

    ``kernel(X)`` takes an ``(N, arity)`` float64 array and returns the raw
    ``(N,)`` penalty vector (callers clamp non-finite values exactly like
    the scalar tier).
    """

    __slots__ = ("variant", "saturated_mask")

    def __init__(self, variant):
        self.variant = variant
        self.saturated_mask = variant.saturated_mask

    def __call__(self, X):
        variant = self.variant
        namespace = variant.namespace
        entry = variant.entry
        rows = np.atleast_2d(np.asarray(X, dtype=np.float64)).tolist()
        out = np.empty(len(rows), dtype=np.float64)
        for i, row in enumerate(rows):
            namespace[R_NAME] = 1.0
            try:
                entry(*row)
            except _SWALLOWED:
                pass
            out[i] = namespace[R_NAME]
        return out


def build_batch_kernel(program, saturated_mask: int):
    """The batched kernel of ``program`` for one mask: its specialized
    variant (a cached lookup unless the mask is new) plus the row loop."""
    return BatchKernel(program.specialize(saturated_mask))
