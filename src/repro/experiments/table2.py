"""Table 2: branch coverage of CoverMe versus Rand and AFL on the Fdlibm suite."""

from __future__ import annotations

from repro.experiments.pipeline import (
    TOOL_FACTORIES,
    ExperimentSpec,
    register_spec,
)
from repro.experiments.runner import (
    ComparisonRow,
    Profile,
    compare_tools,
    format_table,
    mean,
)

TOOLS = ("Rand", "AFL", "CoverMe")


def tool_factories():
    """The Table 2 tool set (CoverMe plus the Rand/AFL baselines).

    The factories derive their seeds from the profile at call time.
    """
    return {name: TOOL_FACTORIES[name] for name in ("CoverMe", "Rand", "AFL")}


def run(
    profile: Profile,
    cases=None,
    measure_lines: bool = False,
    store=None,
    resume: bool = True,
) -> list[ComparisonRow]:
    """Run the Table 2 comparison under the given profile.

    With a persistent ``store``, completed (case, tool) jobs are loaded
    instead of re-executed; without one the run is ephemeral (the historical
    behavior).
    """
    return compare_tools(
        tool_factories(),
        profile,
        cases=cases,
        measure_lines=measure_lines,
        store=store,
        resume=resume,
    )


def summarize(rows: list[ComparisonRow]) -> dict[str, float]:
    """Mean branch coverage per tool plus the improvement columns of Table 2."""
    summary = {tool: mean([row.coverage(tool) for row in rows]) for tool in TOOLS}
    summary["improvement_vs_rand"] = summary["CoverMe"] - summary["Rand"]
    summary["improvement_vs_afl"] = summary["CoverMe"] - summary["AFL"]
    return summary


def render(rows: list[ComparisonRow], profile: Profile) -> str:
    """Render the Table 2 artifact (table plus the headline means line)."""
    summary = summarize(rows)
    table = format_table(
        rows,
        TOOLS,
        paper_column=lambda case: case.paper.coverme_branch,
        title=f"Table 2 reproduction (profile={profile.name}); paper column = CoverMe branch %",
    )
    return (
        f"{table}\n\n"
        f"Means: Rand {summary['Rand']:.1f}%  AFL {summary['AFL']:.1f}%  "
        f"CoverMe {summary['CoverMe']:.1f}%  (paper: 38.0 / 72.9 / 90.8)"
    )


SPEC = register_spec(
    ExperimentSpec(
        name="table2",
        title="Table 2: branch coverage, CoverMe vs Rand vs AFL",
        tools=TOOLS,
        render=render,
    )
)
