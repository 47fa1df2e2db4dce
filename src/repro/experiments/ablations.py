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

import time

from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.bumps import BumpAssigner
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.experiments.report import MethodResult
from repro.experiments.runner import (
    ExperimentBudget,
    as_store,
    budget_store_payload,
    build_evaluators,
    prewarm_thermal_tables,
    spec_fingerprint,
)
from repro.parallel import JobSpec, run_jobs
from repro.reward import RewardCalculator, RewardConfig
from repro.rl import RNDConfig
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


def _train(spec, reward_calculator, budget, label, use_rnd=False, grid=None):
    env = BatchedFloorplanEnv(
        spec.system,
        reward_calculator,
        EnvConfig(grid_size=grid or budget.grid_size),
    )
    trainer = RLPlannerTrainer(
        env,
        TrainerConfig(
            epochs=budget.rl_epochs,
            episodes_per_epoch=budget.episodes_per_epoch,
            batch_size=budget.rollout_batch_size,
            seed=budget.seed,
            use_rnd=use_rnd,
            rnd=RNDConfig(bonus_scale=0.5),
            log_every=0,
        ),
    )
    result = trainer.train()
    breakdown = result.best_breakdown
    return MethodResult(
        system=spec.name,
        method=label,
        reward=breakdown.reward,
        wirelength=breakdown.wirelength,
        temperature_c=breakdown.max_temperature_c,
        runtime_s=result.elapsed,
        extra={"epochs": result.epochs_run},
    )


def run_ablation_arm(
    variant: str, budget: ExperimentBudget, cache_dir=None
) -> MethodResult:
    """One standalone ablation variant — the scheduler's job unit.

    Self-contained like :func:`~repro.experiments.runner.run_method_arm`:
    it rebuilds its evaluators from the (bit-exact) thermal-table disk
    cache, so running variants in any worker in any order reproduces
    the historical sequential loop exactly.
    """
    spec = get_benchmark("synthetic1")
    evaluators = build_evaluators(spec, budget, cache_dir)
    _logger.info("ablation %s", variant)
    if variant == "rl/fast/base":
        return _train(spec, evaluators["reward_fast"], budget, variant)
    if variant == "rl/fast/rnd":
        return _train(
            spec, evaluators["reward_fast"], budget, variant, use_rnd=True
        )
    if variant == "rl/solver/base":
        # The whole point of the fast model: the solver-in-the-loop
        # variant gets the same *epoch* budget and pays the wall-clock
        # price.  A lockstep wave's terminal rewards share one grid
        # factorization (one multi-RHS solve per wave), so the price
        # is one factorization per wave, not per episode.
        return _train(spec, evaluators["reward_solver"], budget, variant)
    if variant == "rl/fast/wl-estimate":
        estimate_reward = RewardCalculator(
            evaluators["fast_model"],
            RewardConfig(
                lambda_wl=spec.reward_config.lambda_wl,
                t_limit=spec.reward_config.t_limit,
                alpha=spec.reward_config.alpha,
                use_bump_assignment=False,
            ),
        )
        return _train(spec, estimate_reward, budget, variant)
    if variant == "rl/fast/wl-hungarian":
        hungarian_reward = RewardCalculator(
            evaluators["fast_model"],
            spec.reward_config,
            assigner=BumpAssigner(wire_group_size=8, method="hungarian"),
        )
        return _train(spec, hungarian_reward, budget, variant)
    if variant.startswith("rl/fast/grid"):
        grid = int(variant.removeprefix("rl/fast/grid"))
        return _train(
            spec, evaluators["reward_fast"], budget, variant, grid=grid
        )
    raise ValueError(f"unknown ablation variant {variant!r}")


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
    policy=None,
    job_timeout: float | None = None,
    keep_going: bool = False,
    report=None,
) -> list:
    """Run all ablation variants on synthetic case 1.

    ``jobs=1`` preserves the historical sequential order bit for bit;
    ``jobs=N`` fans the independent variants over a process pool after
    a shared characterization prewarm.  ``store`` skips variants whose
    results are already published (resumable ablation sweeps).
    ``policy``/``job_timeout``/``keep_going``/``report`` are the
    :func:`repro.parallel.run_jobs` fault-tolerance knobs; quarantined
    variants drop out of the returned rows under ``keep_going``.
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
    outcome = run_jobs(
        job_specs,
        jobs=jobs,
        store=store,
        policy=policy,
        job_timeout=job_timeout,
        keep_going=keep_going,
        report=report,
    )
    results = [
        outcome[f"ablations/{variant}"]
        for variant in ABLATION_VARIANTS
        if f"ablations/{variant}" in outcome
    ]

    if verbose:
        from repro.experiments.report import format_table

        print(format_table(results, title="Ablations (synthetic case 1)"))
    return results
