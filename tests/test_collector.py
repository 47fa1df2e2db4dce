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
* (reward, episode-index)-keyed best-placement selection: ties can
  never flip the reported best, whatever order episodes arrive in;
* slice partitioning and the policy-weights payload round-trip;
* worker replicas are built straight from the broadcast payload (no
  orthogonal init) in the source network's memory layout, and act
  bitwise like it;
* worker pools are released when training finishes or dies.

The in-process/golden anchoring chain: ``collect_jobs=1`` at width 4
is pinned to ``tests/data/golden_trainer.json`` (test_trainer_batched),
batched widths are pinned to each other and to the golden experiments
table, and this file pins every ``collect_jobs`` to ``collect_jobs=1``.
"""

import pickle

import numpy as np
import pytest

from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.agent.networks import ActorCritic
from repro.agent.trainer import _improves_best
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.nn import CheckpointSchemaError, dumps_payload, loads_payload
from repro.nn import layers as layers_module
from repro.parallel import collector as collector_module
from repro.parallel.collector import (
    POLICY_PAYLOAD_KIND,
    EpisodeCollector,
    ReplicaCollector,
    partition_episodes,
)
from repro.parallel.remote import SLICE_RESULT_KIND
from repro.reward import RewardCalculator, RewardConfig
from repro.rl import PPOConfig, RNDConfig


class _Interrupted(Exception):
    """Raised by checkpoint hooks to emulate a mid-run kill."""


def _exploding_remote(weights, start_index, count, greedy, chaos_point="collector.slice"):
    """Stand-in worker task (module-level: must pickle by reference)."""
    raise RuntimeError("worker exploded")


def _forbidden_orthogonal(*args, **kwargs):
    raise AssertionError("a weight replica must not run the orthogonal init")


def _hex(value) -> str:
    return float(value).hex()


def _episode_bits(pairs) -> list:
    """Bitwise-comparable ``[(Episode, info), ...]`` trajectories."""
    return [
        (
            episode.actions,
            [_hex(v) for v in episode.log_probs],
            [_hex(v) for v in episode.values],
            _hex(episode.total_reward),
            [obs.tobytes() for obs in episode.observations],
        )
        for episode, _ in pairs
    ]


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
    return BatchedFloorplanEnv(small_system, calc, EnvConfig(grid_size=10))


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
    """Balanced slices: trajectories do not depend on wave width or
    live count, so slices are cut without regard for waves."""

    def test_slices_are_balanced(self):
        # 10 episodes over 4 workers -> sizes 3, 3, 2, 2, whatever the
        # rollout width.
        slices = partition_episodes(10, 10, 4)
        assert slices == [(10, 3), (13, 3), (16, 2), (18, 2)]

    def test_wave_boundaries_are_ignored(self):
        # One 16-wide wave on 2 workers splits 8 + 8 (a wave-aligned
        # cut left one worker idle); 5 episodes split 3 + 2.
        assert partition_episodes(0, 16, 2) == [(0, 8), (8, 8)]
        assert partition_episodes(0, 5, 2) == [(0, 3), (3, 2)]

    def test_fewer_waves_than_workers_drops_empty_slices(self):
        assert partition_episodes(0, 3, 8) == [(0, 1), (1, 1), (2, 1)]
        assert partition_episodes(4, 2, 8) == [(4, 1), (5, 1)]

    def test_one_episode_is_one_slice(self):
        assert partition_episodes(7, 1, 4) == [(7, 1)]

    def test_single_worker_single_slice(self):
        assert partition_episodes(7, 5, 1) == [(7, 5)]

    def test_zero_episodes(self):
        assert partition_episodes(0, 0, 4) == []

    @pytest.mark.parametrize(
        "count,jobs",
        [(5, 2), (5, 4), (16, 3), (1, 4), (7, 2)],
    )
    def test_always_a_balanced_partition(self, count, jobs):
        slices = partition_episodes(100, count, jobs)
        covered = [
            index
            for start, size in slices
            for index in range(start, start + size)
        ]
        assert covered == list(range(100, 100 + count))
        assert len(slices) == min(jobs, count)
        sizes = [size for _, size in slices]
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1
        # Larger slices first, so the cut is deterministic.
        assert sizes == sorted(sizes, reverse=True)


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


class TestReplicaFromPayload:
    """Replicas are built straight from the broadcast state dict."""

    channels = (4, 8, 8)

    def _source(self, env):
        return ActorCritic(
            env.observation_shape,
            env.n_actions,
            channels=self.channels,
            rng=np.random.default_rng(5),
        )

    def _replica(self, env):
        return ReplicaCollector(
            env.system, env.reward_calculator, env.config, self.channels, 2, 3
        )

    def test_replica_skips_init_and_acts_bitwise(
        self, trainer_env, monkeypatch
    ):
        source = self._source(trainer_env)
        weights = dumps_payload(source.state_dict(), kind=POLICY_PAYLOAD_KIND)
        reference = self._replica(trainer_env).collect(
            None, [(0, (0, 5))], greedy=False, network=source
        )[0]
        monkeypatch.setattr(layers_module, "orthogonal", _forbidden_orthogonal)

        replica = self._replica(trainer_env).build()
        got = replica.collect(weights, [(0, (0, 5))], greedy=False)[0]
        network = replica._network
        # Same values *and* the same memory layout: a conv weight in
        # another layout can round differently in the BLAS call.
        for mine, theirs in zip(network.parameters(), source.parameters()):
            assert mine.data.tobytes() == theirs.data.tobytes()
            assert mine.data.strides == theirs.data.strides
        batched_env = replica._env()
        observations, masks = batched_env.reset(3)
        static = batched_env.observation_builder.STATIC_CHANNELS
        for static_channels in (None, static):
            outputs = [
                net.act_batch(
                    observations,
                    masks,
                    [np.random.default_rng(i) for i in range(3)],
                    static_channels=static_channels,
                )
                for net in (network, source)
            ]
            for mine, theirs in zip(*outputs):
                assert mine.tobytes() == theirs.tobytes()
        assert _episode_bits(got) == _episode_bits(reference)

        # A second broadcast loads in place into the same replica.
        replica.collect(weights, [(0, (0, 1))], greedy=False)
        assert replica._network is network

    def test_pool_workers_skip_init_bitwise(self, trainer_env, monkeypatch):
        reference = _make_trainer(trainer_env).collect_episodes(5)
        trainer = _make_trainer(trainer_env, collect_jobs=2)
        # Patched before the pool forks, so its workers see it too.
        monkeypatch.setattr(layers_module, "orthogonal", _forbidden_orthogonal)
        try:
            got = trainer.collect_episodes(5)
            assert trainer._collector.active  # really collected in the pool
        finally:
            trainer.close_collector()
        assert _episode_bits(got) == _episode_bits(reference)

    def test_slice_result_payload_stays_small(self, small_system, small_fast_model):
        """Pickled episodes keep deflate: 16 grid-32 episodes pickle to
        about 1.4 MB of mostly-empty float32 observation planes, and
        deflate to about 31 KB."""
        env = BatchedFloorplanEnv(
            small_system,
            RewardCalculator(
                small_fast_model,
                RewardConfig(lambda_wl=1e-4, use_bump_assignment=False),
            ),
            EnvConfig(grid_size=32),
        )
        source = self._source(env)
        pairs = self._replica(env).collect(
            None, [(0, (0, 16))], greedy=False, network=source
        )[0]
        assert len(pairs) == 16
        payload = dumps_payload({"pairs": pairs}, kind=SLICE_RESULT_KIND)
        assert len(pickle.dumps(pairs)) > 1_000_000
        assert len(payload) < 100_000
        restored = loads_payload(payload, kind=SLICE_RESULT_KIND)["pairs"]
        assert _episode_bits(restored) == _episode_bits(pairs)


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

    @pytest.mark.parametrize(
        "count,width,expected",
        [
            # One 16-wide wave: both workers collect 8.
            (16, 16, [(0, 8), (8, 8)]),
            # Waves 4, 4, 2 in process; each worker runs 4 then a
            # width-1 remainder wave.
            (10, 4, [(0, 5), (5, 5)]),
        ],
        ids=["one-wave", "width1-remainders"],
    )
    def test_balanced_slices_merge_bitwise(
        self, trainer_env, monkeypatch, count, width, expected
    ):
        dispatched = []
        real_dispatch = collector_module._PoolRung.dispatch

        def spy(rung, weights, slices, greedy, chaos_point):
            dispatched.append([item for _, item in slices])
            return real_dispatch(rung, weights, slices, greedy, chaos_point)

        monkeypatch.setattr(collector_module._PoolRung, "dispatch", spy)
        reference = _make_trainer(trainer_env, batch_size=width)
        sharded = _make_trainer(trainer_env, batch_size=width, collect_jobs=2)
        for trainer in (reference, sharded):
            # A trained head's spread, so a last-ulp logit difference
            # between product row counts would reach the log-probs.
            trainer.network.policy_head.weight.data *= 100.0
        try:
            got = sharded.collect_episodes(count)
        finally:
            sharded.close_collector()
        assert dispatched == [expected]
        assert _episode_bits(got) == _episode_bits(
            reference.collect_episodes(count)
        )


class TestCollectJobsValidation:
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
