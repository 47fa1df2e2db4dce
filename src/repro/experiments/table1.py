"""Table I: four methods on the three open-source benchmark systems."""

from __future__ import annotations

from repro.experiments.report import format_comparison, format_table
from repro.experiments.runner import ExperimentBudget, sweep_method_arms
from repro.systems import get_benchmark

__all__ = ["run_table1"]

TABLE1_SYSTEMS = ("multi_gpu", "cpu_dram", "ascend910")


def run_table1(
    budget: ExperimentBudget | None = None,
    systems: tuple = TABLE1_SYSTEMS,
    cache_dir=None,
    verbose: bool = True,
    **sweep,
) -> list:
    """Regenerate Table I; returns a flat list of MethodResults.

    All (system x method) arms run as one job graph through
    :func:`~repro.experiments.runner.sweep_method_arms`, whose keywords
    ``sweep`` takes (``jobs``, ``store`` and the fault-tolerance knobs).
    Results are identical at any ``jobs``: arms are self-seeded and the
    time-matched arm keeps its dependency on the measured RL runtime.
    """
    specs = [get_benchmark(name) for name in systems]
    per_system = sweep_method_arms(specs, budget, cache_dir=cache_dir, **sweep)
    all_results = [res for results in per_system for res in results]
    if verbose:
        for spec, results in zip(specs, per_system):
            print(format_comparison(results, spec.paper_reference, spec.name))
        print()
        print(format_table(all_results, title="Table I (scaled budgets)"))
    return all_results
