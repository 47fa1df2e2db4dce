"""Fixed scenario shared by the golden-trainer tests and their generators.

The golden regression (``tests/data/golden_trainer.json``) pins the
training trajectory at rollout width :data:`GOLDEN_BATCH_SIZE`.  Its
twin (``tests/data/golden_trainer_weights.json``) pins the learner: the
trained parameters after the same run.  The rewards alone cannot catch
a broken update, because a near-uniform policy samples the same
actions whether or not its weights moved.
Both checked-in generators (``scripts/gen_golden_trainer.py`` and
``scripts/gen_golden_trainer_weights.py``) and the regression tests
import this module so the scenario can never drift between them.
"""

from __future__ import annotations

import numpy as np

from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.chiplet import Chiplet, ChipletSystem, Interposer, Net
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.reward import RewardCalculator, RewardConfig
from repro.rl import PPOConfig
from repro.thermal import FastThermalModel, ThermalConfig, characterize_tables

GOLDEN_SEED = 123
GOLDEN_BATCH_SIZE = 4
GOLDEN_PATH = "tests/data/golden_trainer.json"
GOLDEN_WEIGHTS_PATH = "tests/data/golden_trainer_weights.json"
GOLDEN_WEIGHTS_BATCH_SIZES = (GOLDEN_BATCH_SIZE,)


def build_golden_system() -> ChipletSystem:
    """Three-die system; mirrors the shared test fixture deliberately."""
    return ChipletSystem(
        "golden",
        Interposer(30.0, 30.0),
        (
            Chiplet("hot", 8.0, 8.0, 60.0, kind="gpu"),
            Chiplet("warm", 6.0, 6.0, 15.0, kind="cpu"),
            Chiplet("cold", 4.0, 6.0, 3.0, kind="io"),
        ),
        (
            Net("hot", "warm", wires=512, name="hw"),
            Net("warm", "cold", wires=128, name="wc"),
        ),
    )


def build_golden_env(
    system: ChipletSystem | None = None,
) -> BatchedFloorplanEnv:
    system = system or build_golden_system()
    config = ThermalConfig(rows=32, cols=32, package_margin=8.0)
    sizes = []
    for chiplet in system.chiplets:
        sizes.append((chiplet.width, chiplet.height))
        if chiplet.rotatable:
            sizes.append((chiplet.height, chiplet.width))
    tables = characterize_tables(
        system.interposer, sizes, config, position_samples=(5, 5)
    )
    calc = RewardCalculator(
        FastThermalModel(tables, config),
        RewardConfig(lambda_wl=1e-4, use_bump_assignment=False),
    )
    return BatchedFloorplanEnv(system, calc, EnvConfig(grid_size=12))


def build_golden_trainer(
    env: BatchedFloorplanEnv, **overrides
) -> RLPlannerTrainer:
    defaults = dict(
        epochs=4,
        batch_size=GOLDEN_BATCH_SIZE,
        episodes_per_epoch=6,
        seed=GOLDEN_SEED,
        log_every=0,
        encoder_channels=(4, 8, 8),
        ppo=PPOConfig(minibatch_size=8, update_epochs=2),
    )
    defaults.update(overrides)
    return RLPlannerTrainer(env, TrainerConfig(**defaults))


def run_golden(trainer: RLPlannerTrainer) -> dict:
    """Train and distill the result into a JSON-serializable record."""
    result = trainer.train()
    return {
        "seed": trainer.config.seed,
        "epochs": result.epochs_run,
        "mean_rewards": [h["mean_reward"] for h in result.history],
        "max_rewards": [h["max_reward"] for h in result.history],
        "best_reward": result.best_reward,
        "best_placement": (
            result.best_placement.as_dict()
            if result.best_placement is not None
            else None
        ),
        "deadlock_count": result.deadlock_count,
    }


def weight_summary(trainer: RLPlannerTrainer) -> dict:
    """Parameter name -> ``{"sum", "l2"}`` of the trained network."""
    return {
        name: {"sum": float(value.sum()), "l2": float(np.sqrt((value * value).sum()))}
        for name, value in trainer.network.state_dict().items()
    }


def run_golden_weights(env: BatchedFloorplanEnv) -> dict:
    """Batch width (as a string key) -> :func:`weight_summary` after
    :func:`run_golden` at that width."""
    record = {}
    for width in GOLDEN_WEIGHTS_BATCH_SIZES:
        trainer = build_golden_trainer(env, batch_size=width)
        run_golden(trainer)
        record[str(width)] = weight_summary(trainer)
    return record
