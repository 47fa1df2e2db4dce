"""Fixed scenario shared by the golden-experiments test and its generator.

The golden regression (``tests/data/golden_experiments.json``) pins the
*sequential* experiment runner — ``run_all_methods`` with ``jobs=1``,
all four method arms on a tiny three-die benchmark — to the exact
results the pre-scheduler (PR 3) runner produced.  The process-pool
experiment scheduler added in PR 4 must leave the ``jobs=1`` in-process
path bit-for-bit intact; this golden is what enforces that, the same
way ``golden_baselines.json`` pins the ``n_chains=1`` annealers and
``golden_trainer.json`` pins the width-4 trainer.

The scenario disables wall-clock time matching (``sa_time_matched=
False``) because a time-limited arm's iteration count depends on
machine speed; every other knob keeps the batched defaults
(``rollout_batch_size=16``, ``sa_chains=16``) so the golden covers the
engines the experiment harness actually runs.

A bump-path twin (``tests/data/golden_experiments_bump.json``) runs the
same four arms with ``use_bump_assignment=True`` — the reward path every
bundled benchmark runs — on a smaller SA budget (each fast-SA proposal
pays a microbump assignment).  It pins the batched environment's
``evaluate_batch`` and both multi-chain SA arms on that path.

Floats are stored via ``float.hex()`` so the comparison is bitwise, not
approximate.  Both the checked-in generator
(``scripts/gen_golden_experiments.py``) and the regression test import
this module so the scenario can never drift between them.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.runner import ExperimentBudget, run_all_methods
from repro.reward import RewardConfig
from repro.systems.spec import BenchmarkSpec
from repro.thermal import ThermalConfig

from golden_utils import build_golden_system

GOLDEN_EXPERIMENTS_PATH = "tests/data/golden_experiments.json"
GOLDEN_EXPERIMENTS_BUMP_PATH = "tests/data/golden_experiments_bump.json"

GOLDEN_METHODS = (
    "RLPlanner",
    "RLPlanner(RND)",
    "TAP-2.5D(HotSpot)",
    "TAP-2.5D*(FastThermal)",
)


def build_golden_spec(use_bump_assignment: bool = False) -> BenchmarkSpec:
    """Tiny benchmark: golden three-die system on a coarse thermal grid."""
    return BenchmarkSpec(
        name="golden_exp",
        system=build_golden_system(),
        thermal_config=ThermalConfig(rows=16, cols=16, package_margin=8.0),
        reward_config=RewardConfig(
            lambda_wl=1e-4, use_bump_assignment=use_bump_assignment
        ),
        description="golden experiment-runner scenario",
    )


def build_golden_budget() -> ExperimentBudget:
    """Minutes-not-hours budget; time matching off for determinism."""
    return ExperimentBudget(
        rl_epochs=2,
        episodes_per_epoch=4,
        grid_size=12,
        sa_iterations_hotspot=32,
        sa_time_matched=False,
        position_samples=(3, 3),
        seed=123,
    )


def build_golden_bump_budget() -> ExperimentBudget:
    """The bump-path twin's budget: 2 chains, 400 fast-SA proposals.

    Still multi-chain on both SA arms, but small enough that the
    per-proposal microbump assignment keeps the run to a few seconds.
    """
    return dataclasses.replace(
        build_golden_budget(), sa_iterations_hotspot=4, sa_chains=2
    )


def run_golden_experiments(
    cache_dir, use_bump_assignment: bool = False, **runner_kwargs
) -> dict:
    """Run all four arms sequentially; distill bitwise-comparable records.

    ``cache_dir`` must be a throwaway directory: the thermal-table cache
    round-trips through ``.npz`` (bit-exact) and the golden covers that
    round-trip too.  ``use_bump_assignment`` selects the bump-path twin
    (its spec and budget).
    """
    results = run_all_methods(
        build_golden_spec(use_bump_assignment),
        build_golden_bump_budget()
        if use_bump_assignment
        else build_golden_budget(),
        cache_dir=cache_dir,
        methods=GOLDEN_METHODS,
        **runner_kwargs,
    )
    record = {}
    for res in results:
        record[res.method] = {
            "reward": float(res.reward).hex(),
            "wirelength": float(res.wirelength).hex(),
            "temperature_c": float(res.temperature_c).hex(),
        }
    return record
