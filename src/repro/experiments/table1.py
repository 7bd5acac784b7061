"""Table 1: the saturation scenario on the two-conditional program ``FOO``.

The paper walks through four rounds of minimizing the representing function
of the program::

    void FOO(double x) {
        l0: if (x <= 1) { x += 1; }
        double y = square(x);
        l1: if (y == 4) { ... }
    }

This module reproduces the walk-through programmatically: it runs CoverMe on
the same program and reports, per accepted minimization, which branches became
saturated -- the dynamic counterpart of the table's "Saturate" column.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import CoverMeConfig
from repro.core.coverme import CoverMe
from repro.experiments.pipeline import ExperimentSpec, register_spec
from repro.core.representing import RepresentingFunction
from repro.core.saturation import SaturationTracker
from repro.instrument.program import instrument


def square(value: float) -> float:
    """The helper the paper's example calls (not instrumented)."""
    return value * value


def paper_example_foo(x: float) -> int:
    """The program of Fig. 3 / Table 1."""
    if x <= 1.0:
        x = x + 1.0
    y = square(x)
    if y == 4.0:
        return 1
    return 0


@dataclass
class ScenarioStep:
    """One row of Table 1: the saturation state after a minimization."""

    round: int
    minimum_point: float
    minimum_value: float
    saturated: tuple[str, ...]
    inputs_so_far: tuple[float, ...]


def representing_function_values(xs, tracker_state=None):
    """Evaluate ``FOO_R`` at the given points for a fresh (empty) saturation set.

    Used by the bench to check the table's first row: before anything is
    saturated, ``FOO_R`` is the constant zero function.
    """
    program = instrument(paper_example_foo)
    tracker = SaturationTracker(program)
    foo_r = RepresentingFunction(program, tracker)
    return [foo_r([x]) for x in xs]


def run(n_start: int = 40, seed: int = 0) -> list[ScenarioStep]:
    """Run CoverMe on the example program and report the saturation scenario."""
    coverme = CoverMe(paper_example_foo, CoverMeConfig(n_start=n_start, n_iter=5, seed=seed))
    result = coverme.run()
    steps: list[ScenarioStep] = []
    saturated_names: list[str] = []
    inputs: list[float] = []
    for index, trace in enumerate(result.traces, start=1):
        if trace.accepted:
            inputs.append(trace.minimum_point[0])
            saturated_names = sorted(repr(b) for b in coverme.tracker.saturated)
        steps.append(
            ScenarioStep(
                round=index,
                minimum_point=trace.minimum_point[0],
                minimum_value=trace.minimum_value,
                saturated=tuple(saturated_names),
                inputs_so_far=tuple(inputs),
            )
        )
    return steps


def render_text(profile=None) -> str:
    """Render the Table 1 artifact (the saturation scenario walkthrough)."""
    n_start = profile.n_start if profile is not None else 40
    seed = profile.seed if profile is not None else 0
    steps = run(n_start=n_start, seed=seed)
    lines = [
        "Table 1 reproduction: saturation scenario for the example program FOO",
        f"{'#':>3s} {'x*':>12s} {'FOO_R(x*)':>12s}  saturated branches",
    ]
    for step in steps:
        lines.append(
            f"{step.round:>3d} {step.minimum_point:>12.4g} {step.minimum_value:>12.4g}  "
            f"{', '.join(step.saturated) or '(none)'}"
        )
    return "\n".join(lines)


SPEC = register_spec(
    ExperimentSpec(
        name="table1",
        title="Table 1: saturation scenario walkthrough",
        script=render_text,
    )
)
