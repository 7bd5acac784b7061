"""Experiment harnesses regenerating the paper's tables and figures.

Every artifact of the evaluation section has a module here declaring an
:class:`~repro.experiments.pipeline.ExperimentSpec` plus a renderer, and a
bench in ``benchmarks/``:

* Table 1  -- :mod:`repro.experiments.table1` (saturation scenario walkthrough)
* Figure 2 -- :mod:`repro.experiments.figure2` (local vs global optimization)
* Table 2 / Figure 5 -- :mod:`repro.experiments.table2`,
  :mod:`repro.experiments.figure5` (CoverMe vs Rand vs AFL branch coverage)
* Table 3  -- :mod:`repro.experiments.table3` (CoverMe vs Austin)
* Table 4  -- :mod:`repro.experiments.table4` (excluded functions)
* Table 5  -- :mod:`repro.experiments.table5` (line coverage)

The layer is split in three:

* :mod:`repro.experiments.runner` -- profiles, tool adapters, formatting;
* :mod:`repro.experiments.pipeline` -- planning (specs expand into a
  deduplicated (case, tool) job plan) and resumable execution against a
  content-addressed :class:`~repro.store.RunStore`;
* the per-artifact modules -- specs plus renderers (thin views over rows).

The unified entry point is the ``repro`` CLI: ``python -m repro run table2
--profile smoke --store .repro-store --resume`` (see :mod:`repro.cli`).
Each module still exposes ``run(profile)`` returning structured rows.
"""

from repro.experiments.runner import (
    ComparisonRow,
    Profile,
    PROFILES,
    compare_tools,
    coverme_tool,
    format_table,
)

__all__ = [
    "ComparisonRow",
    "PROFILES",
    "Profile",
    "compare_tools",
    "coverme_tool",
    "format_table",
]
