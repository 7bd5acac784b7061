"""The ``pen`` penalty function (Def. 4.2, Algorithm 1 lines 14-23).

``pen`` decides, at each conditional ``l_i`` with condition ``a op b``, what
value the injected register ``r`` takes:

* if **neither** branch of ``l_i`` is saturated, ``pen`` returns 0 -- whatever
  the program does next saturates a new branch, so this input is already a
  minimum point of the representing function;
* if exactly **one** branch is saturated, ``pen`` returns the branch distance
  towards the *unsaturated* branch, steering the optimizer there;
* if **both** branches are saturated, ``pen`` keeps the previous value of
  ``r`` -- the conditional contributes nothing and the value propagates from
  earlier, unsaturated conditionals (or stays at the initial 1).

The class implements :class:`repro.instrument.runtime.PenaltyPolicy`, so it
plugs directly into the instrumentation runtime.
"""

from __future__ import annotations

from typing import Optional

from repro.core.saturation import SaturationTracker
from repro.instrument.runtime import BranchId


class CoverMePenalty:
    """Def. 4.2 penalty policy bound to a saturation tracker."""

    def __init__(self, tracker: SaturationTracker):
        self.tracker = tracker

    def penalty(
        self,
        conditional: int,
        distance_true: Optional[float],
        distance_false: Optional[float],
        outcome: bool,
        current_r: float,
    ) -> float:
        """Return the new value of ``r`` at conditional ``conditional``."""
        saturated = self.tracker.saturated
        true_branch = BranchId(conditional, True)
        false_branch = BranchId(conditional, False)
        true_saturated = true_branch in saturated
        false_saturated = false_branch in saturated

        if not true_saturated and not false_saturated:
            # Def. 4.2(a): any outcome saturates a new branch.
            return 0.0
        if not true_saturated and false_saturated:
            # Def. 4.2(b): steer towards the true branch.
            return _guarded(distance_true, current_r)
        if true_saturated and not false_saturated:
            # Def. 4.2(b): steer towards the false branch.
            return _guarded(distance_false, current_r)
        # Def. 4.2(c): both saturated, keep the previous r.
        return current_r


def _guarded(distance: Optional[float], current_r: float) -> float:
    """Fall back to the previous ``r`` when no usable distance exists.

    This happens only for conditions CoverMe cannot compare numerically
    (Sect. 5.3); the paper's implementation does not inject ``pen`` there at
    all, which is equivalent to keeping the previous value.
    """
    if distance is None:
        return current_r
    return float(distance)
