"""Table III: reward comparison on the five synthetic systems.

Also computes the paper's headline aggregate: the average improvement of
RLPlanner(RND) over TAP-2.5D(HotSpot) and TAP-2.5D*(fast model) across
cases (paper: 20.28 % and 9.25 % over all eight cases).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.report import format_comparison, format_table
from repro.experiments.runner import ExperimentBudget, sweep_method_arms
from repro.systems import get_benchmark

__all__ = ["run_table3", "improvement_summary"]


def improvement_summary(results: list) -> dict:
    """Mean relative reward improvement of RL over the SA baselines.

    Improvement per system = (R_rl - R_sa) / |R_sa|; positive means the
    RL reward is better (less negative).
    """
    by_system = {}
    for res in results:
        by_system.setdefault(res.system, {})[res.method] = res.reward

    def mean_improvement(rl_method: str, sa_method: str) -> float:
        gains = []
        for methods in by_system.values():
            if rl_method in methods and sa_method in methods:
                rl, sa = methods[rl_method], methods[sa_method]
                gains.append((rl - sa) / abs(sa))
        return float(np.mean(gains)) * 100.0 if gains else float("nan")

    return {
        "rnd_vs_hotspot_pct": mean_improvement(
            "RLPlanner(RND)", "TAP-2.5D(HotSpot)"
        ),
        "rnd_vs_fast_pct": mean_improvement(
            "RLPlanner(RND)", "TAP-2.5D*(FastThermal)"
        ),
        "plain_vs_hotspot_pct": mean_improvement(
            "RLPlanner", "TAP-2.5D(HotSpot)"
        ),
    }


def run_table3(
    budget: ExperimentBudget | None = None,
    cases: tuple = (1, 2, 3, 4, 5),
    cache_dir=None,
    verbose: bool = True,
    **sweep,
) -> list:
    """Regenerate Table III; returns a flat list of MethodResults.

    Like :func:`~repro.experiments.table1.run_table1`: all (case x
    method) arms run as one graph through
    :func:`~repro.experiments.runner.sweep_method_arms`, whose keywords
    ``sweep`` takes.
    """
    specs = [get_benchmark(f"synthetic{case}") for case in cases]
    per_case = sweep_method_arms(specs, budget, cache_dir=cache_dir, **sweep)
    all_results = [res for results in per_case for res in results]
    if verbose:
        for spec, results in zip(specs, per_case):
            print(format_comparison(results, spec.paper_reference, spec.name))
        print()
        print(format_table(all_results, title="Table III (scaled budgets)"))
        summary = improvement_summary(all_results)
        print(
            f"\nRLPlanner(RND) vs TAP-2.5D(HotSpot): "
            f"{summary['rnd_vs_hotspot_pct']:+.2f}% (paper +20.28% over 8 cases)"
        )
        print(
            f"RLPlanner(RND) vs TAP-2.5D*(FastThermal): "
            f"{summary['rnd_vs_fast_pct']:+.2f}% (paper +9.25%)"
        )
    return all_results
