"""Experiment harness: one module per paper table, plus ablations.

One path per job: every RL row, whether a Table I/III method or an
ablation variant, trains through ``runner._run_rl``; the tables and
``run_all_methods`` schedule their arms through one
:func:`~repro.experiments.runner.sweep_method_arms` call and keep only
their own printing; ``repro.cli`` and ``scripts/run_experiments.py``
parse one budget flag set into an :class:`ExperimentBudget` with
``repro.cli.budget_from_args``.
"""

from repro.experiments.report import MethodResult, format_table, save_results
from repro.experiments.runner import (
    ExperimentBudget,
    build_evaluators,
    method_arm_jobs,
    run_all_methods,
    run_method_arm,
    sweep_method_arms,
)
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.ablations import run_ablations

__all__ = [
    "MethodResult",
    "format_table",
    "save_results",
    "ExperimentBudget",
    "build_evaluators",
    "method_arm_jobs",
    "run_all_methods",
    "run_method_arm",
    "sweep_method_arms",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_ablations",
]
