"""Regression harness for the lockstep rollout engine.

Two guarantees are locked in here:

1. **Golden equivalence** — training at rollout width 4 reproduces the
   golden trace in ``tests/data/golden_trainer.json`` exactly
   (regenerate only deliberately, via ``scripts/gen_golden_trainer.py``).
   The comparison is strict; it pins this platform's BLAS behavior,
   which is the configuration the repo's tier-1 gate runs on.
2. **Batch-width invariance** — any ``batch_size >= 2`` produces the
   same trajectories as any other (per-episode RNG streams plus
   shape-stable per-row GEMMs), so the knob trades only speed.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from golden_utils import (
    GOLDEN_PATH,
    GOLDEN_WEIGHTS_PATH,
    build_golden_env,
    build_golden_trainer,
    run_golden,
    run_golden_weights,
)
from repro.agent import TrainerConfig

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def golden_env():
    return build_golden_env()


@pytest.fixture(scope="module")
def golden_record():
    return json.loads((REPO_ROOT / GOLDEN_PATH).read_text())


class TestGoldenEquivalence:
    def test_reproduces_golden_trainer(self, golden_env, golden_record):
        record = run_golden(build_golden_trainer(golden_env))
        assert record["epochs"] == golden_record["epochs"]
        assert record["mean_rewards"] == pytest.approx(
            golden_record["mean_rewards"], rel=1e-12
        )
        assert record["max_rewards"] == pytest.approx(
            golden_record["max_rewards"], rel=1e-12
        )
        assert record["best_reward"] == pytest.approx(
            golden_record["best_reward"], rel=1e-12
        )
        assert record["deadlock_count"] == golden_record["deadlock_count"]
        # The actual product: the best floorplan, position for position.
        assert record["best_placement"] == golden_record["best_placement"]


class TestGoldenWeights:
    def test_trained_weights_match_golden(self, golden_env):
        """The learner itself is pinned: every parameter's sum and L2
        norm after the golden run at width 4.  The reward
        pins above pass even when an update never touches some weights,
        because the near-uniform early policy samples the same actions."""
        golden = json.loads((REPO_ROOT / GOLDEN_WEIGHTS_PATH).read_text())
        record = run_golden_weights(golden_env)
        assert record.keys() == golden.keys()
        for width, summary in golden.items():
            assert record[width].keys() == summary.keys()
            for name, stats in summary.items():
                for stat, value in stats.items():
                    assert record[width][name][stat] == pytest.approx(
                        value, rel=1e-12
                    ), (width, name, stat)


class TestBatchWidthInvariance:
    def test_widths_produce_identical_trajectories(self, golden_env):
        records = {
            width: run_golden(
                build_golden_trainer(golden_env, batch_size=width)
            )
            for width in (2, 3, 6)
        }
        reference = records[2]
        for width in (3, 6):
            assert records[width]["mean_rewards"] == reference["mean_rewards"]
            assert records[width]["max_rewards"] == reference["max_rewards"]
            assert records[width]["best_reward"] == reference["best_reward"]
            assert (
                records[width]["best_placement"] == reference["best_placement"]
            )

    def test_widths_train_identical_weights(self, golden_env):
        """``batch_size`` trades only speed, so the learner sees the
        same data at every width: every trained parameter is bitwise
        equal (the rollout value head runs per row for this)."""
        states = {}
        for width in (2, 3, 4, 6):
            trainer = build_golden_trainer(golden_env, batch_size=width)
            trainer.train()
            states[width] = trainer.network.state_dict()
        for width in (3, 4, 6):
            assert states[width].keys() == states[2].keys()
            for name, value in states[2].items():
                assert np.array_equal(states[width][name], value), (width, name)

    def test_batched_reproducible_with_seed(self, golden_env):
        first = run_golden(build_golden_trainer(golden_env, batch_size=4))
        second = run_golden(build_golden_trainer(golden_env, batch_size=4))
        assert first["mean_rewards"] == second["mean_rewards"]
        assert first["best_placement"] == second["best_placement"]


class TestBatchedCollection:
    def test_collect_episodes_counts(self, golden_env):
        trainer = build_golden_trainer(golden_env, batch_size=4)
        collected = trainer.collect_episodes(6)  # 4 + 2: uneven final wave
        assert len(collected) == 6
        for episode, info in collected:
            assert episode.length == golden_env.episode_length or info.get(
                "deadlock"
            )
            assert "breakdown" in info or info.get("deadlock")

    def test_width_larger_than_epoch_clamps(self, golden_env):
        trainer = build_golden_trainer(
            golden_env, batch_size=64, episodes_per_epoch=3, epochs=1
        )
        result = trainer.train()
        assert result.epochs_run == 1
        assert result.best_breakdown is not None

    def test_rnd_variant_runs_batched(self, golden_env):
        trainer = build_golden_trainer(
            golden_env, batch_size=3, epochs=2, use_rnd=True
        )
        result = trainer.train()
        assert "rnd_loss" in result.history[-1]

    def test_best_placement_reevaluates_to_best_reward(self, golden_env):
        trainer = build_golden_trainer(golden_env, batch_size=6, epochs=2)
        result = trainer.train()
        re_eval = golden_env.reward_calculator.evaluate(result.best_placement)
        assert re_eval.reward == pytest.approx(result.best_reward, abs=1e-6)

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)

    def test_batch_size_one_rejected(self):
        with pytest.raises(ValueError, match="batch_size must be >= 2"):
            TrainerConfig(batch_size=1)
