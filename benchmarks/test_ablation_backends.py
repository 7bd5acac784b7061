"""Ablation benches: design choices called out in DESIGN.md.

* the MCMC chain length ``n_iter`` (0 disables the Monte-Carlo moves),
* the infeasible-branch heuristic on/off.

These go beyond the paper's tables but quantify the choices its Sect. 5/6
discussion relies on.
"""

from __future__ import annotations

import pytest

from repro.core.config import CoverMeConfig
from repro.core.coverme import cover
from repro.experiments.table1 import paper_example_foo
from repro.fdlibm.suite import get_case


@pytest.mark.paper_artifact("ablation_n_iter")
@pytest.mark.parametrize("n_iter", [0, 5])
def test_ablation_mcmc_iterations(benchmark, n_iter, capsys):
    """n_iter = 0 removes the Monte-Carlo moves: pure multi-start local search."""

    def run():
        return cover(paper_example_foo, CoverMeConfig(n_start=30, n_iter=n_iter, seed=2))

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    with capsys.disabled():
        print(f"\n[Ablation n_iter={n_iter}] coverage {result.branch_coverage_percent:.1f}%")
    assert result.branch_coverage_percent >= 75.0


@pytest.mark.paper_artifact("ablation_infeasible_heuristic")
@pytest.mark.parametrize("mark_infeasible", [True, False])
def test_ablation_infeasible_heuristic(benchmark, mark_infeasible, capsys):
    """With the heuristic on, the search stops early on the dead branch of k_cos."""
    case = get_case("kernel_cos")

    def run():
        config = CoverMeConfig(
            n_start=30, n_iter=3, seed=4, mark_infeasible=mark_infeasible, time_budget=5.0
        )
        return cover(case.entry, config)

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    with capsys.disabled():
        print(
            f"\n[Ablation infeasible={mark_infeasible}] k_cos coverage "
            f"{result.branch_coverage_percent:.1f}%, starts used {result.n_starts_used}"
        )
    assert result.branch_coverage_percent >= 62.5
