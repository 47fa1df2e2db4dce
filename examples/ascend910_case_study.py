"""Case study: floorplanning the Ascend 910 package.

A real accelerator with a dominant compute die, HBM stacks that want to
hug it (short, wide buses) and two zero-power dummy dies that only get
in the way — a nice stress test of the action mask on a tightly packed
interposer.

Run:
    python examples/ascend910_case_study.py
"""

from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.experiments.runner import ExperimentBudget, build_evaluators
from repro.systems import get_benchmark
from repro.thermal import GridThermalSolver
from repro.viz import render_floorplan, render_thermal_map


def main() -> None:
    spec = get_benchmark("ascend910")
    print(spec.description)
    print(f"interposer {spec.system.interposer.width:g} x "
          f"{spec.system.interposer.height:g} mm, "
          f"utilization {spec.system.utilization:.0%}")

    budget = ExperimentBudget(rl_epochs=30)
    evaluators = build_evaluators(spec, budget)

    env = BatchedFloorplanEnv(
        spec.system, evaluators["reward_fast"], EnvConfig(grid_size=budget.grid_size)
    )
    trainer = RLPlannerTrainer(
        env,
        TrainerConfig(
            epochs=budget.rl_epochs,
            episodes_per_epoch=budget.episodes_per_epoch,
            use_rnd=True,  # exploration helps on tight packings
            seed=0,
            log_every=10,
        ),
    )
    result = trainer.train()
    breakdown = result.best_breakdown
    print(
        f"\nbest: reward {result.best_reward:.4f}, "
        f"WL {breakdown.wirelength:.0f} mm, T {breakdown.max_temperature_c:.2f} C "
        f"(paper's RLPlanner: -7.41, 18130 mm, 77.12 C)"
    )
    print(f"deadlocked episodes during training: {result.deadlock_count}")
    print()
    print(render_floorplan(result.best_placement))

    # Verify the winner against the ground-truth solver and render heat.
    solver = GridThermalSolver(spec.system.interposer, spec.thermal_config)
    thermal = solver.evaluate(result.best_placement)
    print(
        f"\nground-truth max temperature: {thermal.max_temperature_celsius:.2f} C "
        f"(fast model said {breakdown.max_temperature_c:.2f} C)"
    )
    chip_layer = thermal.grid_temperatures[
        spec.thermal_config.stack.chiplet_layer_index
    ]
    print(render_thermal_map(chip_layer, width=56, height=22))


if __name__ == "__main__":
    main()
