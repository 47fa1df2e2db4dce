"""Ablations over the design choices DESIGN.md calls out.

* RND bonus on/off (also visible in Tables I/III)
* thermal evaluator inside the RL loop: fast model vs grid solver
* wirelength evaluator: bump assignment (greedy / hungarian) vs estimate
* placement grid resolution

Each ablation runs on synthetic case 1 with a small budget; results are
MethodResult rows whose ``method`` encodes the variant.

Every variant is a standalone, picklable job
(:func:`run_ablation_arm`) scheduled through :mod:`repro.parallel`,
exactly like the Table I/III method arms: ``jobs=1`` runs the variants
in their historical sequential order (bit for bit — each arm reloads
the same characterization tables from the disk cache), ``jobs=N`` fans
the independent variants over a process pool, and a run ``store`` skips
variants whose results are already published.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bumps import BumpAssigner
from repro.experiments.report import MethodResult, format_table
from repro.experiments.runner import (
    ExperimentBudget,
    _run_rl,
    as_store,
    budget_store_payload,
    build_evaluators,
    prewarm_thermal_tables,
    spec_fingerprint,
)
from repro.parallel import JobSpec, run_jobs
from repro.reward import RewardCalculator
from repro.store import store_key
from repro.systems import get_benchmark
from repro.utils import get_logger

__all__ = ["ABLATION_VARIANTS", "run_ablation_arm", "run_ablations"]

_logger = get_logger("experiments.ablations")

#: Variant labels in their historical (sequential) execution order.
ABLATION_VARIANTS = (
    "rl/fast/base",
    "rl/fast/rnd",
    "rl/solver/base",
    "rl/fast/wl-estimate",
    "rl/fast/wl-hungarian",
    "rl/fast/grid16",
    "rl/fast/grid32",
)


def run_ablation_arm(
    variant: str, budget: ExperimentBudget, cache_dir=None
) -> MethodResult:
    """One standalone ablation variant — the scheduler's job unit.

    Self-contained like :func:`~repro.experiments.runner.run_method_arm`:
    it rebuilds its evaluators from the (bit-exact) thermal-table disk
    cache, so running variants in any worker in any order reproduces
    the historical sequential loop exactly.  Every variant trains
    through the Table I/III RL arm (``runner._run_rl``), so it honours
    the same budget, collection knobs included.
    """
    spec = get_benchmark("synthetic1")
    evaluators = build_evaluators(spec, budget, cache_dir)
    _logger.info("ablation %s", variant)
    reward = evaluators["reward_fast"]
    grid = None
    if variant == "rl/solver/base":
        # The whole point of the fast model: the solver-in-the-loop
        # variant gets the same *epoch* budget and pays the wall-clock
        # price.  A lockstep wave's terminal rewards share one grid
        # factorization (one multi-RHS solve per wave), so the price
        # is one factorization per wave, not per episode.
        reward = evaluators["reward_solver"]
    elif variant == "rl/fast/wl-estimate":
        reward = RewardCalculator(
            evaluators["fast_model"],
            replace(spec.reward_config, use_bump_assignment=False),
        )
    elif variant == "rl/fast/wl-hungarian":
        reward = RewardCalculator(
            evaluators["fast_model"],
            spec.reward_config,
            assigner=BumpAssigner(wire_group_size=8, method="hungarian"),
        )
    elif variant.startswith("rl/fast/grid"):
        grid = int(variant.removeprefix("rl/fast/grid"))
    elif variant not in ("rl/fast/base", "rl/fast/rnd"):
        raise ValueError(f"unknown ablation variant {variant!r}")
    return _run_rl(
        spec,
        reward,
        budget,
        variant,
        use_rnd=variant == "rl/fast/rnd",
        grid=grid,
    )


def _ablation_store_key(spec, variant: str, budget: ExperimentBudget) -> str:
    return store_key(
        "ablation_arm",
        {
            "spec": spec_fingerprint(spec),
            "variant": variant,
            "budget": budget_store_payload(budget),
        },
    )


def run_ablations(
    budget: ExperimentBudget | None = None,
    cache_dir=None,
    verbose: bool = True,
    jobs: int = 1,
    store=None,
    **faults,
) -> list:
    """Run all ablation variants on synthetic case 1.

    ``jobs=1`` preserves the historical sequential order bit for bit;
    ``jobs=N`` fans the independent variants over a process pool after
    a shared characterization prewarm.  ``store`` skips variants whose
    results are already published (resumable ablation sweeps).
    ``faults`` (``policy``/``job_timeout``/``keep_going``/``report``)
    are the :func:`repro.parallel.run_jobs` fault-tolerance knobs;
    quarantined variants drop out of the returned rows under
    ``keep_going``.
    """
    budget = budget or ExperimentBudget(rl_epochs=15)
    store = as_store(store)
    spec = get_benchmark("synthetic1")
    job_specs = [
        JobSpec(
            job_id="ablations/prewarm",
            fn=prewarm_thermal_tables,
            kwargs=dict(spec=spec, budget=budget, cache_dir=cache_dir),
        )
    ]
    job_specs.extend(
        JobSpec(
            job_id=f"ablations/{variant}",
            fn=run_ablation_arm,
            kwargs=dict(variant=variant, budget=budget, cache_dir=cache_dir),
            needs=("ablations/prewarm",),
            store_key=(
                _ablation_store_key(spec, variant, budget)
                if store is not None
                else None
            ),
        )
        for variant in ABLATION_VARIANTS
    )
    outcome = run_jobs(job_specs, jobs=jobs, store=store, **faults)
    results = [
        outcome[f"ablations/{variant}"]
        for variant in ABLATION_VARIANTS
        if f"ablations/{variant}" in outcome
    ]

    if verbose:
        print(format_table(results, title="Ablations (synthetic case 1)"))
    return results
