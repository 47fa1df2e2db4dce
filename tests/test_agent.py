"""Tests for the actor-critic network and the training loop."""

import numpy as np
import pytest

from repro.agent import ActorCritic, RLPlannerTrainer, TrainerConfig
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.reward import RewardCalculator, RewardConfig
from repro.rl import PPOConfig


@pytest.fixture
def env(small_system, small_fast_model):
    calc = RewardCalculator(
        small_fast_model, RewardConfig(lambda_wl=1e-4, use_bump_assignment=False)
    )
    return BatchedFloorplanEnv(small_system, calc, EnvConfig(grid_size=12))


def small_trainer(env, **overrides):
    defaults = dict(
        epochs=3,
        episodes_per_epoch=4,
        seed=0,
        log_every=0,
        encoder_channels=(4, 8, 8),
        ppo=PPOConfig(minibatch_size=8, update_epochs=2),
    )
    defaults.update(overrides)
    return RLPlannerTrainer(env, TrainerConfig(**defaults))


class TestActorCritic:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        net = ActorCritic((3, 12, 12), 144, channels=(4, 8, 8), rng=rng)
        obs = rng.normal(size=(5, 3, 12, 12))
        masks = np.ones((5, 144), bool)
        dist, values = net.evaluate(obs, masks)
        assert dist.probs.shape == (5, 144)
        assert values.shape == (5,)

    def test_act_respects_mask(self):
        rng = np.random.default_rng(0)
        net = ActorCritic((2, 8, 8), 64, channels=(4, 4, 4), rng=rng)
        mask = np.zeros((1, 64), bool)
        mask[0, [3, 17]] = True
        for _ in range(10):
            actions, log_probs, values = net.act_batch(
                rng.normal(size=(1, 2, 8, 8)), mask, [rng]
            )
            assert actions[0] in (3, 17)
            assert log_probs[0] <= 0.0
            assert np.isfinite(values[0])

    def test_greedy_act_deterministic(self):
        rng = np.random.default_rng(1)
        net = ActorCritic((2, 8, 8), 64, channels=(4, 4, 4), rng=rng)
        obs = rng.normal(size=(1, 2, 8, 8))
        mask = np.ones((1, 64), bool)
        actions = {
            int(net.act_batch(obs, mask, [rng], greedy=True)[0][0])
            for _ in range(5)
        }
        assert len(actions) == 1

    def test_initial_policy_near_uniform(self):
        """The 0.01-gain policy head should start close to uniform."""
        rng = np.random.default_rng(2)
        net = ActorCritic((2, 8, 8), 64, channels=(4, 4, 4), rng=rng)
        dist, _ = net.evaluate(
            rng.normal(size=(1, 2, 8, 8)), np.ones((1, 64), bool)
        )
        entropy = float(dist.entropy().data[0])
        assert entropy > 0.95 * np.log(64)

    def test_odd_grid_feature_dims(self):
        rng = np.random.default_rng(3)
        net = ActorCritic((7, 15, 15), 225, channels=(4, 4, 4), rng=rng)
        dist, values = net.evaluate(
            rng.normal(size=(2, 7, 15, 15)), np.ones((2, 225), bool)
        )
        assert dist.probs.shape == (2, 225)


class TestTrainer:
    def test_collect_episode_complete(self, env):
        trainer = small_trainer(env)
        [(episode, info)] = trainer.collect_episodes(1)
        assert episode.length == env.episode_length
        assert "breakdown" in info or info.get("deadlock")

    def test_training_runs_and_tracks_best(self, env):
        trainer = small_trainer(env)
        result = trainer.train()
        assert result.epochs_run == 3
        assert len(result.history) == 3
        assert result.best_breakdown is not None
        assert result.best_placement is not None
        assert result.best_reward >= max(
            h["mean_reward"] for h in result.history
        ) - 50  # sanity: best >= means - margin
        # Best placement re-evaluates to the recorded reward.
        re_eval = env.reward_calculator.evaluate(result.best_placement)
        assert re_eval.reward == pytest.approx(result.best_reward, abs=1e-6)

    def test_rnd_variant_runs(self, env):
        trainer = small_trainer(env, use_rnd=True)
        result = trainer.train()
        assert "rnd_loss" in result.history[-1]

    def test_time_limit_stops_early(self, env):
        trainer = small_trainer(env, epochs=10_000, time_limit=1.5)
        result = trainer.train()
        assert result.epochs_run < 10_000
        assert result.elapsed < 30.0

    def test_reproducible_with_seed(self, env):
        r1 = small_trainer(env, seed=7).train()
        r2 = small_trainer(env, seed=7).train()
        assert r1.best_reward == pytest.approx(r2.best_reward)
        assert [h["mean_reward"] for h in r1.history] == pytest.approx(
            [h["mean_reward"] for h in r2.history]
        )

    def test_checkpoint_roundtrip(self, env, tmp_path):
        trainer = small_trainer(env)
        trainer.train()
        path = tmp_path / "agent.npz"
        trainer.save_checkpoint(path)
        fresh = small_trainer(env, seed=99)
        fresh.load_checkpoint(path)
        obs, mask = env.reset(1)
        rng = np.random.default_rng(0)
        a1, _, v1 = trainer.network.act_batch(obs, mask, [rng], greedy=True)
        a2, _, v2 = fresh.network.act_batch(obs, mask, [rng], greedy=True)
        assert a1[0] == a2[0]
        assert v1[0] == pytest.approx(v2[0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)
