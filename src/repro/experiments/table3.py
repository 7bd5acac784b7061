"""Table 3: CoverMe versus Austin (branch coverage and wall time)."""

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

TOOLS = ("Austin", "CoverMe")


def tool_factories(seed: int = 0):
    """The Table 3 tool set; ``seed`` is kept for backwards compatibility."""
    return {name: TOOL_FACTORIES[name] for name in ("CoverMe", "Austin")}


def run(profile: Profile, cases=None, store=None, resume: bool = True) -> list[ComparisonRow]:
    return compare_tools(
        tool_factories(profile.seed), profile, cases=cases, store=store, resume=resume
    )


def summarize(rows: list[ComparisonRow]) -> dict[str, float]:
    """Mean coverage, mean times, and the speed-up column of Table 3."""
    summary = {
        "austin_branch": mean([row.coverage("Austin") for row in rows]),
        "coverme_branch": mean([row.coverage("CoverMe") for row in rows]),
        "austin_time": mean([row.time("Austin") for row in rows]),
        "coverme_time": mean([row.time("CoverMe") for row in rows]),
    }
    summary["coverage_improvement"] = summary["coverme_branch"] - summary["austin_branch"]
    if summary["coverme_time"] > 0:
        summary["speedup"] = summary["austin_time"] / summary["coverme_time"]
    else:
        summary["speedup"] = float("inf")
    return summary


def render(rows: list[ComparisonRow], profile: Profile) -> str:
    summary = summarize(rows)
    table = format_table(
        rows,
        TOOLS,
        paper_column=lambda case: (
            case.paper.austin_branch if case.paper.austin_branch is not None else float("nan")
        ),
        title=f"Table 3 reproduction (profile={profile.name}); paper column = Austin branch %",
    )
    return (
        f"{table}\n\n"
        f"Means: Austin {summary['austin_branch']:.1f}% in {summary['austin_time']:.1f}s, "
        f"CoverMe {summary['coverme_branch']:.1f}% in {summary['coverme_time']:.1f}s "
        f"(paper: 42.8% / 6058.4s vs 90.8% / 6.9s)"
    )


SPEC = register_spec(
    ExperimentSpec(
        name="table3",
        title="Table 3: CoverMe vs Austin",
        tools=TOOLS,
        render=render,
    )
)
