"""Distributed episode collection: bitwise invariance across worker
counts, kill+resume under sharding, and pool lifecycle.

Covers the PR-6 tentpole guarantees:

* ``collect_jobs=2`` and ``=4`` training is **bitwise** identical to
  ``collect_jobs=1`` — plain, RND and across batch widths, including
  epochs whose episode count does not divide evenly over the workers
  (slices of width 1 exercise single-row waves);
* kill-at-epoch-k + resume under sharded collection == the
  uninterrupted in-process run, bitwise — even when the resumed run
  uses a *different* ``collect_jobs`` (per-episode streams re-derive
  from (seed, index), so worker count is not semantic state);
* the sequential engine (``batch_size=1``) cannot shard: requesting
  ``collect_jobs>1`` warns and falls back to in-process collection;
* (reward, episode-index)-keyed best-placement selection: ties can
  never flip the reported best, whatever order episodes arrive in;
* slice partitioning and the policy-weights payload round-trip;
* worker pools are released when training finishes or dies.

The in-process/golden anchoring chain: ``collect_jobs=1`` at
``batch_size=1`` is pinned to ``tests/data/golden_sequential_trainer
.json`` (test_trainer_batched), batched widths are pinned to each other
and to the golden experiments table, and this file pins every
``collect_jobs`` to ``collect_jobs=1``.
"""

import logging

import numpy as np
import pytest

from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.agent.trainer import _improves_best
from repro.env import EnvConfig, FloorplanEnv
from repro.nn import CheckpointSchemaError, dumps_payload, loads_payload
from repro.parallel import collector as collector_module
from repro.parallel.collector import EpisodeCollector, partition_episodes
from repro.reward import RewardCalculator, RewardConfig
from repro.rl import PPOConfig, RNDConfig


class _Interrupted(Exception):
    """Raised by checkpoint hooks to emulate a mid-run kill."""


def _exploding_remote(weights, start_index, count, greedy, chaos_point="collector.slice"):
    """Stand-in worker task (module-level: must pickle by reference)."""
    raise RuntimeError("worker exploded")


def _hex(value) -> str:
    return float(value).hex()


def _history_hex(result):
    """Bitwise-comparable trainer history (wall-clock fields excluded)."""
    return [
        {
            key: (_hex(v) if isinstance(v, float) else v)
            for key, v in entry.items()
            if key != "elapsed"
        }
        for entry in result.history
    ]


def _distill(result) -> dict:
    return {
        "best_reward": _hex(result.best_reward),
        "history": _history_hex(result),
        "placement": (
            None
            if result.best_placement is None
            else sorted(result.best_placement.positions.items())
        ),
        "deadlocks": result.deadlock_count,
    }


@pytest.fixture
def trainer_env(small_system, small_fast_model):
    calc = RewardCalculator(
        small_fast_model, RewardConfig(lambda_wl=1e-4, use_bump_assignment=False)
    )
    return FloorplanEnv(small_system, calc, EnvConfig(grid_size=10))


def _make_trainer(env, **overrides):
    defaults = dict(
        epochs=2,
        # Deliberately does not divide evenly over 2 or 4 workers, so
        # sharded runs exercise uneven slices down to width-1 waves.
        episodes_per_epoch=5,
        batch_size=2,
        seed=3,
        log_every=0,
        encoder_channels=(4, 8, 8),
        ppo=PPOConfig(minibatch_size=8, update_epochs=2),
        rnd=RNDConfig(bonus_scale=0.5),
    )
    defaults.update(overrides)
    return RLPlannerTrainer(env, TrainerConfig(**defaults))


# ----------------------------------------------------------------------
# pure units: partitioning, selection, payload bytes
# ----------------------------------------------------------------------


class TestPartitionEpisodes:
    def test_slices_are_wave_aligned(self):
        # 10 episodes in waves of 3 -> waves [3, 3, 3, 1]; 4 workers
        # get one wave each.  The width-1 remainder wave stays intact.
        slices = partition_episodes(10, 10, 3, 4)
        assert slices == [(10, 3), (13, 3), (16, 3), (19, 1)]

    def test_waves_grouped_when_workers_are_scarce(self):
        # waves [2, 2, 1] over 2 workers -> [2 waves, 1 wave].
        assert partition_episodes(0, 5, 2, 2) == [(0, 4), (4, 1)]

    def test_fewer_waves_than_workers_drops_empty_slices(self):
        assert partition_episodes(0, 3, 1, 8) == [(0, 1), (1, 1), (2, 1)]
        assert partition_episodes(0, 8, 4, 8) == [(0, 4), (4, 4)]

    def test_width_beyond_count_is_one_slice(self):
        assert partition_episodes(7, 5, 64, 4) == [(7, 5)]

    def test_single_worker_single_slice(self):
        assert partition_episodes(7, 5, 2, 1) == [(7, 5)]

    def test_zero_episodes(self):
        assert partition_episodes(0, 0, 2, 4) == []

    @pytest.mark.parametrize(
        "count,width,jobs",
        [(5, 2, 2), (5, 2, 4), (16, 3, 3), (1, 2, 4), (7, 3, 2)],
    )
    def test_always_a_wave_aligned_partition(self, count, width, jobs):
        slices = partition_episodes(100, count, width, jobs)
        covered = [
            index
            for start, size in slices
            for index in range(start, start + size)
        ]
        assert covered == list(range(100, 100 + count))
        assert all(size >= 1 for _, size in slices)
        for start, size in slices:
            # Every slice begins on an in-process wave boundary and,
            # except for the epoch's final slice, holds whole waves.
            assert (start - 100) % width == 0
        for start, size in slices[:-1]:
            assert size % width == 0


class TestBestSelection:
    def test_higher_reward_always_wins(self):
        assert _improves_best(2.0, 99, 1.0, 0)
        assert not _improves_best(0.5, 0, 1.0, 99)

    def test_tie_breaks_toward_earlier_episode(self):
        assert _improves_best(1.0, 3, 1.0, 7)
        assert not _improves_best(1.0, 7, 1.0, 3)
        assert not _improves_best(1.0, 5, 1.0, 5)

    def test_selection_is_order_independent(self):
        # The same (reward, index) multiset must elect the same winner
        # in any arrival order — the property arrival-order ``>`` lacked.
        entries = [(1.0, 4), (2.0, 6), (2.0, 2), (0.5, 0), (2.0, 9)]
        winners = []
        rng = np.random.default_rng(0)
        for _ in range(10):
            order = list(entries)
            rng.shuffle(order)
            best_reward, best_episode = -np.inf, -1
            for reward, index in order:
                if _improves_best(reward, index, best_reward, best_episode):
                    best_reward, best_episode = reward, index
            winners.append((best_reward, best_episode))
        assert set(winners) == {(2.0, 2)}

    def test_in_order_arrival_matches_historical_first_wins(self):
        # Under the fixed index-order merge, the explicit key reduces
        # to the pre-fix strict-> rule: first of equals wins.  This is
        # what keeps the golden traces bitwise.
        best_reward, best_episode = -np.inf, -1
        picks = []
        for index, reward in enumerate([1.0, 3.0, 3.0, 2.0]):
            legacy = reward > best_reward
            keyed = _improves_best(reward, index, best_reward, best_episode)
            assert keyed == legacy
            if keyed:
                best_reward, best_episode = reward, index
                picks.append(index)
        assert picks == [0, 1]


class TestPolicyPayloadBytes:
    def test_round_trips_state_dict_bitwise(self):
        state = {
            "w": np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0,
            "b": np.array([1e-300, -0.0, np.pi]),
        }
        data = dumps_payload(state, kind="collector-policy")
        assert isinstance(data, bytes)
        restored = loads_payload(data, kind="collector-policy")
        assert set(restored) == {"w", "b"}
        for key in state:
            assert restored[key].tobytes() == state[key].tobytes()
            assert restored[key].dtype == state[key].dtype

    def test_kind_mismatch_rejected(self):
        data = dumps_payload({"x": 1}, kind="collector-policy")
        with pytest.raises(CheckpointSchemaError, match="kind"):
            loads_payload(data, kind="rlplanner-trainer")


# ----------------------------------------------------------------------
# bitwise invariance across worker counts
# ----------------------------------------------------------------------


class TestShardedBitwise:
    @pytest.mark.parametrize(
        "variant_kwargs",
        [
            dict(),
            dict(use_rnd=True),
            dict(batch_size=3),
        ],
        ids=["plain", "rnd", "width3"],
    )
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_collect_jobs_bitwise_equals_in_process(
        self, trainer_env, jobs, variant_kwargs
    ):
        reference = _distill(
            _make_trainer(trainer_env, **variant_kwargs).train()
        )
        sharded = _distill(
            _make_trainer(
                trainer_env, collect_jobs=jobs, **variant_kwargs
            ).train()
        )
        assert sharded == reference

    def test_collect_episodes_merges_in_index_order(self, trainer_env):
        reference = _make_trainer(trainer_env)
        sharded = _make_trainer(trainer_env, collect_jobs=2)
        try:
            ref_pairs = reference.collect_episodes(5)
            got_pairs = sharded.collect_episodes(5)
            assert len(got_pairs) == len(ref_pairs) == 5
            for (ref_ep, _), (got_ep, _) in zip(ref_pairs, got_pairs):
                assert got_ep.actions == ref_ep.actions
                assert got_ep.log_probs == ref_ep.log_probs
                assert got_ep.rewards == ref_ep.rewards
            assert sharded._episode_index == reference._episode_index == 5
        finally:
            sharded.close_collector()


class TestSequentialFallback:
    def test_batch_size_1_warns_and_collects_in_process(
        self, trainer_env, caplog
    ):
        logger = logging.getLogger("repro")
        logger.addHandler(caplog.handler)
        try:
            trainer = _make_trainer(
                trainer_env, batch_size=1, collect_jobs=4
            )
        finally:
            logger.removeHandler(caplog.handler)
        assert any(
            "cannot be sharded" in rec.getMessage() for rec in caplog.records
        )
        assert trainer.collect_jobs == 1
        assert trainer._collector is None
        reference = _distill(_make_trainer(trainer_env, batch_size=1).train())
        assert _distill(trainer.train()) == reference

    def test_collect_jobs_zero_rejected(self):
        with pytest.raises(ValueError, match="collect_jobs"):
            TrainerConfig(collect_jobs=0)


# ----------------------------------------------------------------------
# kill + resume under sharded collection
# ----------------------------------------------------------------------


class TestShardedResume:
    @pytest.mark.parametrize("resume_jobs", [2, 4, 1])
    def test_kill_and_resume_bitwise(
        self, trainer_env, tmp_path, resume_jobs
    ):
        """Sharded run killed at epoch 2 resumes bitwise — even under a
        different worker count than it was interrupted at."""
        reference = _make_trainer(trainer_env, epochs=4).train()

        path = tmp_path / "ckpt.npz"
        interrupted = _make_trainer(
            trainer_env, epochs=4, collect_jobs=2, checkpoint_every=2
        )

        def kill_at_checkpoint(state):
            interrupted.save_checkpoint(path)
            raise _Interrupted()

        with pytest.raises(_Interrupted):
            interrupted.train(checkpoint_fn=kill_at_checkpoint)
        assert not interrupted._collector.active  # pool not stranded

        resumed = _make_trainer(
            trainer_env, epochs=4, collect_jobs=resume_jobs, checkpoint_every=2
        )
        resumed.load_checkpoint(path)
        assert resumed._progress["epochs_run"] == 2
        result = resumed.train()

        assert result.epochs_run == reference.epochs_run
        assert _distill(result) == _distill(reference)

    def test_checkpoint_records_collect_jobs_and_best_episode(
        self, trainer_env
    ):
        trainer = _make_trainer(trainer_env, collect_jobs=2)
        trainer.train()
        state = trainer.state_dict()
        assert state["collect_jobs"] == 2
        assert state["episode_index"] == 10  # 2 epochs x 5 episodes
        best_episode = state["progress"]["best_episode"]
        assert 0 <= best_episode < 10


# ----------------------------------------------------------------------
# pool lifecycle
# ----------------------------------------------------------------------


class TestCollectorLifecycle:
    def test_train_releases_workers(self, trainer_env):
        trainer = _make_trainer(trainer_env, collect_jobs=2)
        assert not trainer._collector.active  # lazy: nothing spawned yet
        trainer.train()
        assert not trainer._collector.active

    def test_close_is_idempotent(self, trainer_env):
        trainer = _make_trainer(trainer_env, collect_jobs=2)
        trainer.collect_episodes(2)
        assert trainer._collector.active
        trainer.close_collector()
        assert not trainer._collector.active
        trainer.close_collector()
        # The pool respawns transparently if collection continues.
        trainer.collect_episodes(2)
        assert trainer._collector.active
        trainer.close_collector()

    def test_constructor_validation(self, trainer_env):
        env = trainer_env
        with pytest.raises(ValueError, match="jobs"):
            EpisodeCollector(
                env.system,
                env.reward_calculator,
                env.config,
                jobs=0,
                batch_size=4,
                seed=0,
            )
        with pytest.raises(ValueError, match="batch_size"):
            EpisodeCollector(
                env.system,
                env.reward_calculator,
                env.config,
                jobs=2,
                batch_size=1,
                seed=0,
            )
        with pytest.raises(ValueError, match="reprobe_after"):
            EpisodeCollector(
                env.system,
                env.reward_calculator,
                env.config,
                jobs=2,
                batch_size=4,
                seed=0,
                reprobe_after=-1,
            )

    def test_prefetch_handoff_contract(self, trainer_env):
        env = trainer_env
        collector = EpisodeCollector(
            env.system,
            env.reward_calculator,
            env.config,
            jobs=2,
            batch_size=2,
            seed=3,
        )
        with collector:
            with pytest.raises(RuntimeError, match="no prefetch"):
                collector.collect_prefetched()
            collector.cancel_prefetch()  # idempotent with none outstanding
            weights = dumps_payload(
                {"w": np.zeros(1)}, kind="collector-policy"
            )
            # A double prefetch is a trainer bug, not a race to tolerate.
            collector._prefetch = {"futures": []}
            try:
                with pytest.raises(RuntimeError, match="outstanding"):
                    collector.prefetch(weights, 0, 4)
            finally:
                collector.cancel_prefetch()
            assert not collector.prefetching

    def test_worker_failure_closes_pool_and_propagates(
        self, trainer_env, monkeypatch
    ):
        # Module-level, so the submitted callable pickles by reference
        # (a closure would crash the executor's queue-feeder thread
        # instead of failing the future).
        monkeypatch.setattr(
            collector_module, "_collect_remote", _exploding_remote
        )
        trainer = _make_trainer(trainer_env, collect_jobs=2)
        with pytest.raises(RuntimeError, match="worker exploded"):
            trainer.collect_episodes(4)
        assert not trainer._collector.active
