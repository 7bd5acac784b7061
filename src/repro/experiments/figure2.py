"""Figure 2: local versus global optimization on the paper's two objectives.

* Fig. 2(a): ``f(x) = 0 if x <= 1 else (x-1)^2`` -- a smooth objective a local
  method minimizes directly.
* Fig. 2(b): ``f(x) = ((x+1)^2-4)^2 if x <= 1 else (x^2-4)^2`` -- a
  multi-modal objective where plain local search gets trapped and the
  Monte-Carlo moves of basin-hopping are needed to reach a global minimum
  (the minimum points are x in {-3, 1, 2}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.pipeline import ExperimentSpec, register_spec
from repro.optimize.basinhopping import basinhopping
from repro.optimize.local import get_local_minimizer


def figure2a_objective(x: float) -> float:
    """Objective of Fig. 2(a)."""
    x = float(np.atleast_1d(x)[0])
    return 0.0 if x <= 1.0 else (x - 1.0) ** 2


def figure2b_objective(x: float) -> float:
    """Objective of Fig. 2(b)."""
    x = float(np.atleast_1d(x)[0])
    if x <= 1.0:
        return ((x + 1.0) ** 2 - 4.0) ** 2
    return (x * x - 4.0) ** 2


#: Global minimum points of the Fig. 2(b) objective.
FIGURE2B_MINIMA = (-3.0, 1.0, 2.0)


@dataclass
class Figure2Result:
    objective: str
    method: str
    start: float
    minimum_point: float
    minimum_value: float


def run(seed: int = 0) -> list[Figure2Result]:
    """Minimize both objectives with local-only and basin-hopping methods."""
    rng = np.random.default_rng(seed)
    powell = get_local_minimizer("powell")
    results: list[Figure2Result] = []
    for start in (6.0, -6.0, 0.5):
        local_a = powell(figure2a_objective, np.array([start]))
        results.append(
            Figure2Result("fig2a", "powell", start, float(local_a.x[0]), local_a.fun)
        )
        local_b = powell(figure2b_objective, np.array([start]))
        results.append(
            Figure2Result("fig2b", "powell", start, float(local_b.x[0]), local_b.fun)
        )
        global_b = basinhopping(
            figure2b_objective,
            np.array([start]),
            n_iter=20,
            local_minimizer="powell",
            step_size=2.0,
            rng=rng,
        )
        results.append(
            Figure2Result("fig2b", "basinhopping", start, float(global_b.x[0]), global_b.fun)
        )
    return results


def render_text(profile=None) -> str:
    """Render the Figure 2 artifact (local vs global optimization runs)."""
    seed = profile.seed if profile is not None else 0
    lines = ["Figure 2 reproduction: local vs global optimization"]
    for item in run(seed=seed):
        lines.append(
            f"{item.objective:6s} {item.method:14s} start={item.start:6.1f} "
            f"-> x*={item.minimum_point:10.4f} f(x*)={item.minimum_value:.3g}"
        )
    return "\n".join(lines)


SPEC = register_spec(
    ExperimentSpec(
        name="figure2",
        title="Figure 2: local vs global optimization",
        script=render_text,
    )
)
