"""Floorplan the Multi-GPU benchmark with RLPlanner vs TAP-2.5D.

The workload the paper's Table I leads with: four GPU modules and eight
HBM stacks.  Trains RLPlanner with the fast thermal model, then runs the
SA baseline under the same wall-clock budget, and prints both layouts.

Run:
    python examples/multi_gpu_floorplan.py           # scaled-down budget
    python examples/multi_gpu_floorplan.py --full    # paper-scale (hours)
"""

import argparse

from repro.baselines import TAP25DConfig, TAP25DPlacer
from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.experiments.runner import ExperimentBudget, build_evaluators
from repro.systems import get_benchmark
from repro.viz import render_floorplan


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true", help="paper-scale budget")
    parser.add_argument("--epochs", type=int, default=30)
    args = parser.parse_args()

    spec = get_benchmark("multi_gpu")
    budget = (
        ExperimentBudget.paper_scale()
        if args.full
        else ExperimentBudget(rl_epochs=args.epochs)
    )
    print(f"system: {spec.description}")
    print(
        f"dies {spec.system.n_chiplets}, power {spec.system.total_power:.0f} W, "
        f"wires {spec.system.total_wires}"
    )
    evaluators = build_evaluators(spec, budget)

    print("\ntraining RLPlanner (fast thermal model in the loop)...")
    env = BatchedFloorplanEnv(
        spec.system, evaluators["reward_fast"], EnvConfig(grid_size=budget.grid_size)
    )
    trainer = RLPlannerTrainer(
        env,
        TrainerConfig(
            epochs=budget.rl_epochs,
            episodes_per_epoch=budget.episodes_per_epoch,
            seed=0,
            log_every=10,
        ),
    )
    rl = trainer.train()
    rl_breakdown = rl.best_breakdown
    print(
        f"RLPlanner: reward {rl.best_reward:.4f}, "
        f"WL {rl_breakdown.wirelength:.0f} mm, "
        f"T {rl_breakdown.max_temperature_c:.2f} C, {rl.elapsed:.0f} s"
    )

    print("\nrunning TAP-2.5D* (fast thermal model, time-matched)...")
    placer = TAP25DPlacer(
        spec.system,
        evaluators["reward_fast"],
        TAP25DConfig(n_iterations=10**6, time_limit=rl.elapsed, seed=0),
    )
    sa = placer.run()
    print(
        f"TAP-2.5D*: reward {sa.reward:.4f}, "
        f"WL {sa.breakdown.wirelength:.0f} mm, "
        f"T {sa.breakdown.max_temperature_c:.2f} C, {sa.elapsed:.0f} s"
    )

    print("\nRLPlanner floorplan:")
    print(render_floorplan(rl.best_placement))
    print("\nTAP-2.5D* floorplan:")
    print(render_floorplan(sa.placement))


if __name__ == "__main__":
    main()
