"""Figure 5: per-benchmark branch-coverage series (the bar chart of the paper).

Figure 5 plots exactly the data of Table 2 -- branch coverage per benchmark
for Rand, AFL and CoverMe.  This module renders the same series as aligned
text bars so the figure can be regenerated without a plotting dependency, and
returns the raw series for programmatic use.  Because the spec declares the
same (case, tool) jobs as Table 2, a combined ``repro run table2 figure5``
executes each pair once and renders both artifacts from the shared records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.pipeline import ExperimentSpec, register_spec
from repro.experiments.runner import ComparisonRow, Profile
from repro.experiments.table2 import TOOLS, run as run_table2


@dataclass
class Figure5Series:
    """One tool's coverage series over the benchmark suite (one bar group)."""

    tool: str
    labels: tuple[str, ...]
    values: tuple[float, ...]


def run(profile: Profile, cases=None, store=None, resume: bool = True) -> list[Figure5Series]:
    rows = run_table2(profile, cases=cases, store=store, resume=resume)
    return series_from_rows(rows)


def series_from_rows(rows: list[ComparisonRow]) -> list[Figure5Series]:
    labels = tuple(row.case.function for row in rows)
    return [
        Figure5Series(
            tool=tool,
            labels=labels,
            values=tuple(row.coverage(tool) for row in rows),
        )
        for tool in TOOLS
    ]


def render_ascii(series: list[Figure5Series], width: int = 50) -> str:
    """Render the bar chart as text (one block per benchmark, one bar per tool)."""
    lines = ["Figure 5 reproduction: branch coverage per benchmark (x-axis of the paper)"]
    labels = series[0].labels if series else ()
    for index, label in enumerate(labels):
        lines.append(label)
        for item in series:
            value = item.values[index]
            filled = int(round(width * value / 100.0)) if value == value else 0
            lines.append(f"  {item.tool:>8s} |{'#' * filled:<{width}s}| {value:5.1f}%")
    return "\n".join(lines)


def render(rows: list[ComparisonRow], profile: Profile) -> str:
    return render_ascii(series_from_rows(rows))


SPEC = register_spec(
    ExperimentSpec(
        name="figure5",
        title="Figure 5: per-benchmark branch-coverage bars",
        tools=TOOLS,
        render=render,
    )
)
