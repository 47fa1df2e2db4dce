"""Quickstart: define a chiplet system, train RLPlanner, print the floorplan.

Run:
    python examples/quickstart.py

Takes about a minute on a laptop CPU (small budgets; crank the epochs for
better floorplans).
"""

from repro.chiplet import Chiplet, ChipletSystem, Interposer, Net
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.reward import RewardCalculator, RewardConfig
from repro.thermal import FastThermalModel, ThermalConfig
from repro.thermal.characterize import characterize_for_system
from repro.viz import render_floorplan


def main() -> None:
    # 1. Describe the system: dies, powers, and die-to-die bundles.
    system = ChipletSystem(
        name="quickstart",
        interposer=Interposer(width=30.0, height=30.0, min_spacing=0.2),
        chiplets=(
            Chiplet("soc", 10.0, 10.0, power=55.0, kind="cpu"),
            Chiplet("gpu", 8.0, 8.0, power=45.0, kind="gpu"),
            Chiplet("hbm0", 6.0, 8.0, power=6.0, kind="hbm"),
            Chiplet("hbm1", 6.0, 8.0, power=6.0, kind="hbm"),
        ),
        nets=(
            Net("soc", "gpu", wires=512),
            Net("gpu", "hbm0", wires=1024),
            Net("gpu", "hbm1", wires=1024),
            Net("soc", "hbm0", wires=128),
        ),
    )

    # 2. Characterize the fast thermal model once for this package.
    thermal_config = ThermalConfig(r_convection=0.12)
    print("characterizing thermal tables (one-time per package)...")
    tables = characterize_for_system(system, thermal_config)
    fast_model = FastThermalModel(tables, thermal_config)

    # 3. Reward: wirelength + temperature-over-limit penalty.
    reward = RewardCalculator(
        fast_model, RewardConfig(lambda_wl=3.3e-4, t_limit=85.0)
    )

    # 4. Train the agent.
    env = BatchedFloorplanEnv(system, reward, EnvConfig(grid_size=24))
    trainer = RLPlannerTrainer(
        env, TrainerConfig(epochs=25, episodes_per_epoch=8, seed=0, log_every=5)
    )
    result = trainer.train()

    # 5. Inspect the best floorplan found.
    breakdown = result.best_breakdown
    print(f"\nbest reward      {result.best_reward:.4f}")
    print(f"wirelength       {breakdown.wirelength:.0f} mm")
    print(f"max temperature  {breakdown.max_temperature_c:.2f} C")
    print()
    print(render_floorplan(result.best_placement))


if __name__ == "__main__":
    main()
