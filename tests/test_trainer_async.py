"""Pipelined (async) actor/learner overlap: the PR-8 tentpole.

``TrainerConfig.async_collect`` overlaps epoch k's PPO update with the
collection of epoch k+1, which is collected with the *pre-update*
epoch-k policy (a fixed one-epoch staleness schedule; epoch 0 is always
collected synchronously with the initial policy).  These tests pin the
mode's own determinism contract:

* async runs are **reproducible** at a fixed ``(seed, collect_jobs)``
  and **invariant** to ``collect_jobs`` — pooled and in-process async
  runs match bitwise (the staleness schedule is part of the algorithm,
  never an artifact of timing);
* the staleness schedule itself: the prefetch for epoch 1 carries the
  exact serialized pre-update initial weights — the same bytes epoch 0
  collected with — and later prefetches carry fresher weights;
* checkpoint/resume: the in-flight prefetch is persisted (weights
  bytes + index range), discarded, and deterministically re-collected
  on resume — kill+resume matches the uninterrupted async run bitwise;
* a lockstep trainer resuming an async checkpoint warns and rewinds
  the episode counter instead of silently skipping the pending block;
* ``async_collect`` at ``batch_size=1`` raises like every width-1
  config — the mode is semantic, so a silent fallback would poison
  store keys;
* ``async_collect`` is a **semantic** budget field (enters store keys),
  unlike ``collect_jobs`` which never does.

The lockstep default path is pinned elsewhere (goldens +
``test_collector``/``test_trainer_batched``); nothing here touches it.
"""

import logging

import pytest

from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.experiments.runner import ExperimentBudget, budget_store_payload
from repro.reward import RewardCalculator, RewardConfig
from test_collector import _Interrupted, _distill, _make_trainer


@pytest.fixture
def trainer_env(small_system, small_fast_model):
    calc = RewardCalculator(
        small_fast_model, RewardConfig(lambda_wl=1e-4, use_bump_assignment=False)
    )
    return BatchedFloorplanEnv(small_system, calc, EnvConfig(grid_size=10))


def _train_async(env, **overrides):
    defaults = dict(epochs=3, async_collect=True)
    defaults.update(overrides)
    trainer = _make_trainer(env, **defaults)
    try:
        return _distill(trainer.train())
    finally:
        trainer.close_collector()


class TestAsyncDeterminism:
    def test_reproducible_at_fixed_seed(self, trainer_env):
        first = _train_async(trainer_env)
        second = _train_async(trainer_env)
        assert first == second

    def test_differs_from_lockstep_schedule(self, trainer_env):
        # Documented semantics, pinned: one epoch of policy staleness
        # changes the training trajectory.  If this ever starts passing
        # as equal, async is silently running lockstep.
        lockstep = _distill(_make_trainer(trainer_env, epochs=3).train())
        assert _train_async(trainer_env) != lockstep

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_invariant_to_collect_jobs(self, trainer_env, jobs):
        reference = _train_async(trainer_env)
        pooled = _train_async(trainer_env, collect_jobs=jobs)
        assert pooled == reference

    def test_epoch_one_collects_with_preupdate_initial_weights(
        self, trainer_env
    ):
        """The staleness schedule, pinned at the broadcast boundary:
        epoch 0 collects synchronously with the initial policy, and the
        prefetch for epoch 1 is dispatched with those *same* serialized
        bytes — before update 0 runs.  Epoch 2's prefetch then carries
        post-update-0 weights."""
        trainer = _make_trainer(
            trainer_env, epochs=3, collect_jobs=2, async_collect=True
        )
        collector = trainer._collector
        sync_calls, prefetch_calls = [], []

        original_collect = collector.collect_with_weights
        original_prefetch = collector.prefetch

        def spy_collect(weights, start_index, count, greedy=False):
            sync_calls.append((start_index, weights))
            return original_collect(weights, start_index, count, greedy=greedy)

        def spy_prefetch(weights, start_index, count, greedy=False):
            prefetch_calls.append((start_index, weights))
            return original_prefetch(weights, start_index, count, greedy=greedy)

        collector.collect_with_weights = spy_collect
        collector.prefetch = spy_prefetch
        try:
            trainer.train()
        finally:
            trainer.close_collector()

        # Epoch 0 synchronous; epochs 1 and 2 prefetched; no prefetch
        # past the last epoch.
        assert [start for start, _ in sync_calls] == [0]
        assert [start for start, _ in prefetch_calls] == [5, 10]
        theta0 = sync_calls[0][1]
        assert prefetch_calls[0][1] == theta0  # pre-update: same bytes
        assert prefetch_calls[1][1] != theta0  # post-update-0 weights

    def test_async_with_sequential_engine_raises(self):
        with pytest.raises(ValueError, match="batch_size must be >= 2"):
            TrainerConfig(async_collect=True, batch_size=1)

    def test_async_without_collector_warns(self, trainer_env, caplog):
        logger = logging.getLogger("repro")
        logger.addHandler(caplog.handler)
        try:
            trainer = _make_trainer(trainer_env, async_collect=True)
        finally:
            logger.removeHandler(caplog.handler)
        # In-process async collects through the collector too, but
        # starts no pool and no coordinator.
        assert not trainer._collector.active
        assert trainer.collector_address is None
        assert any(
            "async_collect without collect_jobs" in rec.getMessage()
            for rec in caplog.records
        )


class TestAsyncResume:
    def test_kill_and_resume_bitwise(self, trainer_env, tmp_path):
        """Async run killed at epoch 2 — with the epoch-3 prefetch in
        flight — resumes to the uninterrupted run, bitwise.  The
        pending block is persisted as (stored stale weights, index
        range), dropped, and re-collected from those bytes on resume."""
        reference_trainer = _make_trainer(
            trainer_env, epochs=4, collect_jobs=2, async_collect=True
        )
        reference = _distill(reference_trainer.train())
        reference_trainer.close_collector()

        path = tmp_path / "ckpt.npz"
        interrupted = _make_trainer(
            trainer_env,
            epochs=4,
            collect_jobs=2,
            async_collect=True,
            checkpoint_every=2,
        )

        def kill_at_checkpoint(state):
            # The prefetch for the next epoch is already in flight —
            # the checkpoint must carry it.
            assert state["async_prefetch"] is not None
            assert isinstance(state["async_prefetch"]["weights"], bytes)
            interrupted.save_checkpoint(path)
            raise _Interrupted()

        with pytest.raises(_Interrupted):
            interrupted.train(checkpoint_fn=kill_at_checkpoint)
        interrupted.close_collector()

        resumed = _make_trainer(
            trainer_env,
            epochs=4,
            collect_jobs=2,
            async_collect=True,
            checkpoint_every=2,
        )
        resumed.load_checkpoint(path)
        assert resumed._progress["epochs_run"] == 2
        result = resumed.train()
        resumed.close_collector()
        assert _distill(result) == reference

    def test_resume_under_different_collect_jobs_bitwise(
        self, trainer_env, tmp_path
    ):
        """Worker count stays non-semantic under async: a pooled async
        run killed mid-flight resumes bitwise on an in-process trainer."""
        reference = _train_async(trainer_env, epochs=4)

        path = tmp_path / "ckpt.npz"
        interrupted = _make_trainer(
            trainer_env,
            epochs=4,
            collect_jobs=2,
            async_collect=True,
            checkpoint_every=2,
        )

        def kill_at_checkpoint(state):
            interrupted.save_checkpoint(path)
            raise _Interrupted()

        with pytest.raises(_Interrupted):
            interrupted.train(checkpoint_fn=kill_at_checkpoint)
        interrupted.close_collector()

        resumed = _make_trainer(
            trainer_env, epochs=4, async_collect=True, checkpoint_every=2
        )
        resumed.load_checkpoint(path)
        assert _distill(resumed.train()) == reference

    def test_lockstep_resume_of_async_checkpoint_warns_and_rewinds(
        self, trainer_env, tmp_path, caplog
    ):
        path = tmp_path / "ckpt.npz"
        interrupted = _make_trainer(
            trainer_env, epochs=4, async_collect=True, checkpoint_every=2
        )

        def kill_at_checkpoint(state):
            interrupted.save_checkpoint(path)
            raise _Interrupted()

        with pytest.raises(_Interrupted):
            interrupted.train(checkpoint_fn=kill_at_checkpoint)
        index_with_pending = interrupted._episode_index

        resumed = _make_trainer(trainer_env, epochs=4, checkpoint_every=2)
        logger = logging.getLogger("repro")
        logger.addHandler(caplog.handler)
        try:
            resumed.load_checkpoint(path)
        finally:
            logger.removeHandler(caplog.handler)
        assert any(
            "async_collect" in rec.getMessage() for rec in caplog.records
        )
        # The never-consumed pending block is handed back: lockstep
        # collection restarts at the block's own start index.
        assert resumed._episode_index == index_with_pending - 5
        result = resumed.train()
        assert result.epochs_run == 4


class TestAsyncBudgetSemantics:
    def test_async_collect_is_semantic_in_store_keys(self):
        lockstep = budget_store_payload(ExperimentBudget())
        pipelined = budget_store_payload(
            ExperimentBudget(async_collect=True)
        )
        assert lockstep["async_collect"] is False
        assert pipelined["async_collect"] is True
        assert lockstep != pipelined
        # collect_jobs stays non-semantic either way.
        assert "collect_jobs" not in lockstep
