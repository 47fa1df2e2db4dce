"""Cross-module integration tests: the full pipeline on a small system.

These are the "does the library actually compose" tests: every method
combination of the paper's tables on one shared fixture, reproducibility
end to end, and consistency between the two thermal backends.
"""

import numpy as np
import pytest

from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.baselines import TAP25DConfig, TAP25DPlacer, random_search
from repro.chiplet.validate import validate_placement
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.reward import RewardCalculator, RewardConfig
from repro.rl import PPOConfig
from repro.thermal.config import KELVIN_OFFSET


@pytest.fixture
def reward_fast(small_fast_model):
    return RewardCalculator(
        small_fast_model, RewardConfig(lambda_wl=1e-4, use_bump_assignment=False)
    )


@pytest.fixture
def reward_solver(small_solver):
    return RewardCalculator(
        small_solver, RewardConfig(lambda_wl=1e-4, use_bump_assignment=False)
    )


class TestMethodMatrix:
    """All four method/evaluator combinations produce legal floorplans."""

    def test_rl_with_fast_model(self, small_system, reward_fast):
        env = BatchedFloorplanEnv(small_system, reward_fast, EnvConfig(grid_size=12))
        trainer = RLPlannerTrainer(
            env,
            TrainerConfig(
                epochs=2,
                episodes_per_epoch=4,
                seed=0,
                log_every=0,
                encoder_channels=(4, 8, 8),
                ppo=PPOConfig(minibatch_size=8),
            ),
        )
        result = trainer.train()
        validate_placement(result.best_placement)

    def test_rl_with_solver(self, small_system, reward_solver):
        env = BatchedFloorplanEnv(small_system, reward_solver, EnvConfig(grid_size=12))
        trainer = RLPlannerTrainer(
            env,
            TrainerConfig(
                epochs=1,
                episodes_per_epoch=2,
                seed=0,
                log_every=0,
                encoder_channels=(4, 8, 8),
                ppo=PPOConfig(minibatch_size=8),
            ),
        )
        result = trainer.train()
        validate_placement(result.best_placement)

    def test_sa_with_fast_model(self, small_system, reward_fast):
        placer = TAP25DPlacer(
            small_system, reward_fast, TAP25DConfig(n_iterations=40, seed=0)
        )
        result = placer.run()
        validate_placement(result.placement)

    def test_sa_with_solver(self, small_system, reward_solver):
        placer = TAP25DPlacer(
            small_system, reward_solver, TAP25DConfig(n_iterations=10, seed=0)
        )
        result = placer.run()
        validate_placement(result.placement)


class TestEvaluatorConsistency:
    def test_backends_agree_on_ranking(
        self, small_system, reward_fast, reward_solver
    ):
        """Fast model and solver should rank clearly different layouts alike."""
        results = random_search(small_system, reward_fast, n_samples=6, seed=1)
        good = results.placement
        bad = random_search(small_system, reward_fast, n_samples=1, seed=99).placement
        fast_good = reward_fast.evaluate(good).reward
        fast_bad = reward_fast.evaluate(bad).reward
        if abs(fast_good - fast_bad) > 0.3:  # only meaningful when distinct
            solver_good = reward_solver.evaluate(good).reward
            solver_bad = reward_solver.evaluate(bad).reward
            assert (fast_good > fast_bad) == (solver_good > solver_bad)

    def test_temperatures_close(self, small_system, reward_fast, reward_solver):
        placement = random_search(
            small_system, reward_fast, n_samples=1, seed=3
        ).placement
        t_fast = reward_fast.evaluate(placement).max_temperature_c
        t_solver = reward_solver.evaluate(placement).max_temperature_c
        assert t_fast == pytest.approx(t_solver, abs=1.5)


class TestEndToEndReproducibility:
    def test_same_seed_same_history(self, small_system, reward_fast):
        def run():
            env = BatchedFloorplanEnv(
                small_system, reward_fast, EnvConfig(grid_size=12)
            )
            trainer = RLPlannerTrainer(
                env,
                TrainerConfig(
                    epochs=2,
                    episodes_per_epoch=4,
                    seed=11,
                    log_every=0,
                    encoder_channels=(4, 8, 8),
                    ppo=PPOConfig(minibatch_size=8),
                ),
            )
            result = trainer.train()
            return [h["mean_reward"] for h in result.history]

        assert run() == pytest.approx(run())

    def test_sa_same_seed_same_best(self, small_system, reward_fast):
        def run():
            placer = TAP25DPlacer(
                small_system, reward_fast, TAP25DConfig(n_iterations=30, seed=5)
            )
            return placer.run().reward

        assert run() == pytest.approx(run())


class TestThermalResultContainer:
    def test_celsius_and_hottest(self, small_system, small_solver):
        placement = random_search(
            small_system,
            RewardCalculator(
                small_solver, RewardConfig(use_bump_assignment=False)
            ),
            n_samples=1,
            seed=0,
        ).placement
        result = small_solver.evaluate(placement)
        assert result.max_temperature_celsius == pytest.approx(
            result.max_temperature - KELVIN_OFFSET
        )
        hottest = result.hottest_chiplet
        assert result.temperature_of(hottest) == result.max_temperature
        assert result.temperature_of(hottest, celsius=True) < result.temperature_of(
            hottest
        )
