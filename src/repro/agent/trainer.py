"""RLPlanner's training loop: PPO (+ optional RND) over the environment.

One "epoch" collects a batch of complete episodes, adds RND intrinsic
bonuses if enabled, runs the PPO update, and tracks the best placement
seen so far — the floorplanner's actual product.  Training stops after
``epochs`` epochs or ``time_limit`` seconds, whichever comes first (the
paper compares methods under matched wall-clock budgets).

Episodes step in lockstep waves of ``TrainerConfig.batch_size`` through
a :class:`~repro.env.BatchedFloorplanEnv`, with one batched actor-critic
forward per step.  Each episode samples from its own derived RNG
stream, so trajectories are invariant to the batch width (any
``batch_size >= 2`` yields identical results).

Collection runs through one
:class:`~repro.parallel.collector.EpisodeCollector`.  With
``TrainerConfig.collect_jobs`` / ``collect_workers`` it adds a local
process pool / leased remote workers above in-process collection:
weights are broadcast once per epoch, each worker collects a
contiguous slice of episode indices on the exact same
``episode.{index}`` streams, and the slices merge back in index order —
so sharded training is bitwise identical to in-process collection
(regression-pinned); the knobs trade only wall-clock.

``TrainerConfig.async_collect`` pipelines the two phases (opt-in):
while the learner runs the PPO update for epoch k, the collector pool
is already collecting epoch k+1 — with the **pre-update epoch-k
policy**, dispatched as a prefetch before the update ran.  The
staleness schedule is fixed, not timing-dependent: epoch 0 collects
synchronously with the initial weights and every epoch ``e >= 1``
collects with the weights as of *before* update ``e-1`` ran — an
off-by-one (IMPALA-style) actor/learner split.  Because the schedule
is part of the algorithm rather than an artifact of overlap, an async
run is reproducible at a fixed seed regardless of ``collect_jobs``,
worker timing, or injected faults, and checkpoints capture the
in-flight prefetch (its weight bytes + index block) so kill+resume is
bitwise too.  The default stays lockstep — async runs produce
*different* (equally valid) trajectories, so the mode is semantic and
never silently enabled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.agent.networks import ActorCritic
from repro.env import BatchedFloorplanEnv
from repro.nn import Adam, dumps_payload, load_payload, save_payload
from repro.parallel.collector import POLICY_PAYLOAD_KIND, EpisodeCollector
from repro.rl import (
    PPOConfig,
    PPOUpdater,
    RNDConfig,
    RandomNetworkDistillation,
    RolloutBuffer,
    linear_schedule,
)
from repro.utils import SeedSequence, get_logger

__all__ = ["TrainerConfig", "TrainingResult", "RLPlannerTrainer"]

_logger = get_logger("agent.trainer")

#: ``kind`` tag of trainer checkpoints in the versioned payload schema.
TRAINER_CHECKPOINT_KIND = "rlplanner-trainer"


@dataclass(frozen=True)
class TrainerConfig:
    """Training hyperparameters.

    The paper trains for 600 epochs; benches scale this down and the
    time_limit gives the wall-clock-matched comparisons of Table I.
    """

    epochs: int = 600
    episodes_per_epoch: int = 16
    # Rollout batch width (>= 2): up to ``batch_size`` episodes step
    # together through a BatchedFloorplanEnv with one batched forward
    # per step, each episode on its own derived RNG stream — so
    # trajectories are identical for ANY batch_size >= 2 (8 and 16 give
    # the same result, just at different speed).
    batch_size: int = 16
    # Worker processes for episode collection.  1 = collect in-process.
    # >1 = shard each epoch's episodes over a persistent process pool:
    # weights broadcast once per epoch, contiguous index slices per
    # worker, merged in index order — bitwise identical to in-process
    # collection at any worker count.
    collect_jobs: int = 1
    # Pipelined (async) collection: overlap epoch k's PPO update with
    # the collection of epoch k+1, which is dispatched *before* the
    # update with the pre-update epoch-k weights (off-by-one
    # staleness).  The schedule is fixed, so async runs are
    # reproducible at a fixed seed — but they differ from lockstep runs
    # (the data for epoch e >= 1 comes from a one-update-older policy),
    # which is why the mode is opt-in and participates in experiment
    # store keys.  Wall-clock overlap needs collect_jobs >= 2 (with
    # in-process collection the same schedule runs, just without the
    # speedup).
    async_collect: bool = False
    # Remote (multi-machine) episode collection.  0 = off.  >= 1 opens
    # a lease-based TCP coordinator (bound at ``collect_bind``) and
    # cuts each epoch into ``max(collect_workers, collect_jobs)``
    # balanced slices served by whatever remote workers
    # (scripts/collect_worker.py) lease in — the count sets partition granularity, not a connection
    # requirement.  Like collect_jobs, the knob is non-semantic: slices
    # are pure in (weight bytes, per-episode seed streams), so results
    # are bitwise identical to in-process collection at any worker
    # count, under worker kills, disconnects and lease expiries — only
    # wall clock changes.  With no remote workers reachable the
    # trainer degrades to the local pool (collect_jobs >= 2), then to
    # in-process.
    collect_workers: int = 0
    # host:port the coordinator binds ("127.0.0.1:0" = loopback,
    # ephemeral port; use "0.0.0.0:<port>" to accept workers from other
    # machines).  Non-semantic, like collect_workers.
    collect_bind: str = "127.0.0.1:0"
    gamma: float = 0.99
    gae_lambda: float = 0.95
    learning_rate: float = 3e-4
    seed: int = 0
    use_rnd: bool = False
    rnd: RNDConfig = field(default_factory=RNDConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    encoder_channels: tuple = (16, 32, 32)
    time_limit: float | None = None
    log_every: int = 10
    # Entropy annealing: the coefficient interpolates linearly from
    # ppo.entropy_coef to this value over the epoch budget (None = off).
    entropy_coef_final: float | None = 0.001
    # Full-state checkpoint cadence in epochs (0 = never).  ``train``
    # hands the complete resumable state (network + Adam moments + RNG
    # generator states + running stats + progress) to its
    # ``checkpoint_fn`` after every ``checkpoint_every``-th epoch; a
    # run resumed from such a state is bitwise identical to one that
    # was never interrupted.
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.episodes_per_epoch < 1:
            raise ValueError("epochs and episodes_per_epoch must be >= 1")
        if self.batch_size < 2:
            raise ValueError(
                "batch_size must be >= 2 (episodes step in lockstep waves)"
            )
        if self.collect_jobs < 1:
            raise ValueError("collect_jobs must be >= 1")
        if self.collect_workers < 0:
            raise ValueError("collect_workers must be >= 0 (0 = off)")
        if self.collect_workers:
            host, _, port = self.collect_bind.rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(
                    "collect_bind must be 'host:port' (port 0 = "
                    f"ephemeral), got {self.collect_bind!r}"
                )
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")


@dataclass
class TrainingResult:
    """What training produced."""

    best_reward: float
    best_breakdown: object
    best_placement: object
    history: list
    epochs_run: int
    elapsed: float
    deadlock_count: int = 0

    @property
    def final_mean_reward(self) -> float:
        return self.history[-1]["mean_reward"] if self.history else float("nan")


def _improves_best(
    reward: float, episode: int, best_reward: float, best_episode: int
) -> bool:
    """Whether (reward, episode) beats the incumbent best placement.

    Selection is explicitly (reward desc, episode index asc)-keyed:
    a strictly better reward always wins, and an *equal* reward wins
    only from an earlier global episode index.  Arrival order drops out
    entirely, so sharded collection can never flip the reported best
    placement — and under the in-order merge this reduces exactly to
    the historical ``reward > best`` first-wins rule, keeping the
    goldens bitwise.
    """
    if reward > best_reward:
        return True
    return reward == best_reward and episode < best_episode


class RLPlannerTrainer:
    """Train an :class:`ActorCritic` on a :class:`BatchedFloorplanEnv`.

    Parameters
    ----------
    env:
        Environment for one chiplet system.
    config:
        Hyperparameters; ``use_rnd=True`` gives the paper's
        RLPlanner(RND) variant.
    """

    def __init__(
        self, env: BatchedFloorplanEnv, config: TrainerConfig | None = None
    ):
        self.env = env
        self.config = config or TrainerConfig()
        seeds = SeedSequence(self.config.seed)
        self.network = ActorCritic(
            env.observation_shape,
            env.n_actions,
            channels=self.config.encoder_channels,
            rng=seeds.rng("network"),
        )
        self.optimizer = Adam(
            self.network.parameters(), lr=self.config.learning_rate
        )
        self.ppo = PPOUpdater(self.network, self.optimizer, self.config.ppo)
        self.rnd = None
        if self.config.use_rnd:
            obs_dim = int(np.prod(env.observation_shape))
            self.rnd = RandomNetworkDistillation(
                obs_dim, self.config.rnd, rng=seeds.rng("rnd")
            )
        self._ppo_rng = seeds.rng("ppo")
        # Global episode counter: episode k of the run always draws from
        # the stream "episode.k", regardless of batch width, which is
        # what makes batched collection width-invariant.
        self._episode_index = 0
        cfg = self.config
        remote = {}
        if cfg.collect_workers:
            host, _, port = cfg.collect_bind.rpartition(":")
            remote = dict(
                workers=cfg.collect_workers, host=host, port=int(port)
            )
        self._collector = EpisodeCollector(
            env.system,
            env.reward_calculator,
            env.config,
            jobs=cfg.collect_jobs,
            batch_size=cfg.batch_size,
            seed=cfg.seed,
            encoder_channels=cfg.encoder_channels,
            **remote,
        )
        self.async_collect = bool(cfg.async_collect)
        if (
            self.async_collect
            and cfg.collect_jobs < 2
            and not cfg.collect_workers
        ):
            _logger.warning(
                "async_collect without collect_jobs >= 2: the pipelined "
                "staleness schedule still runs (results match a pooled "
                "async run bitwise) but collection happens in-process, "
                "so the update/collection overlap — the speedup — is "
                "lost"
            )
        # Async (pipelined) collection state.  _pending is the epoch
        # block whose collection was dispatched but not yet consumed:
        # (start_index, count), with _stale_weights holding the exact
        # serialized policy it must be collected with.
        self._pending: tuple | None = None
        self._stale_weights: bytes | None = None
        self._progress = self._fresh_progress()

    @staticmethod
    def _fresh_progress() -> dict:
        return {
            "epochs_run": 0,
            "best_reward": -np.inf,
            # Global index of the episode that produced the best
            # placement (-1 = none yet): the selection tie-breaker that
            # keeps "best" independent of episode arrival order.
            "best_episode": -1,
            "best_breakdown": None,
            "best_placement": None,
            "deadlocks": 0,
            "history": [],
            "elapsed": 0.0,
        }

    # ------------------------------------------------------------------

    def collect_episodes(self, n: int, greedy: bool = False) -> list:
        """Collect ``n`` episodes; returns ``[(Episode, info), ...]``.

        Advances the global episode counter, so episode ``k`` of a run
        is the same episode everywhere.
        """
        start_index = self._episode_index
        self._episode_index += n
        return self._collector.collect(
            self.network, start_index, n, greedy=greedy
        )

    # ------------------------------------------------------------------
    # pipelined (async) collection
    # ------------------------------------------------------------------

    def _policy_payload(self) -> bytes:
        """The current policy, serialized as a broadcast payload."""
        return dumps_payload(
            self.network.state_dict(), kind=POLICY_PAYLOAD_KIND
        )

    def _collect_epoch_async(self, epoch: int) -> tuple:
        """One epoch's collection under the pipelined schedule.

        Returns ``(epoch_base, collected)``.  Consumes the pending
        prefetch (dispatched last epoch with the then-current weights,
        or restored from a checkpoint), then — before the caller runs
        this epoch's PPO update — dispatches the next epoch's block
        with the *current* (pre-update) weights.  The first epoch of a
        fresh run has no older policy and collects synchronously with
        the initial weights, so the staleness schedule is exactly:
        epoch 0 uses theta_0, epoch e >= 1 uses theta_{e-1}.
        """
        cfg = self.config
        n = cfg.episodes_per_epoch
        collector = self._collector
        if self._pending is not None:
            start, count = self._pending
            self._pending = None
            if collector.prefetching:
                collected = collector.collect_prefetched()
            else:
                # Nothing in flight (a resumed checkpoint): collect now
                # from the stored stale bytes — same policy, same
                # episodes, no overlap.
                collected = collector.collect_with_weights(
                    self._stale_weights, start, count
                )
        else:
            start = self._episode_index
            self._episode_index += n
            collected = collector.collect_with_weights(
                self._policy_payload(), start, n
            )
        if epoch + 1 < cfg.epochs:
            weights = self._policy_payload()  # pre-update theta_epoch
            self._stale_weights = weights
            next_start = self._episode_index
            self._episode_index += n
            self._pending = (next_start, n)
            collector.prefetch(weights, next_start, n)
        else:
            self._stale_weights = None
        return start, collected

    @property
    def collector_address(self) -> tuple | None:
        """The remote coordinator's ``(host, port)``, or None.

        Remote workers (``scripts/collect_worker.py``) connect here;
        with ``collect_bind`` port 0 this is how the actual ephemeral
        port is discovered.
        """
        return self._collector.address

    def close_collector(self) -> None:
        """Release collection workers (no-op when none are running).

        Idempotent; the local pool respawns — and the remote
        coordinator rebinds its remembered port — lazily if collection
        continues.
        """
        self._collector.close()

    def train(self, checkpoint_fn=None) -> TrainingResult:
        """Run the full training loop; returns the best floorplan found.

        Starts from scratch, or — after :meth:`load_state_dict` — from
        the checkpointed epoch, continuing the interrupted run bitwise.
        ``checkpoint_fn(state)`` receives the full resumable state after
        every ``config.checkpoint_every``-th epoch.
        """
        cfg = self.config
        progress = self._progress
        best_reward = progress["best_reward"]
        best_episode = progress.get("best_episode", -1)
        best_breakdown = progress["best_breakdown"]
        best_placement = progress["best_placement"]
        deadlocks = progress["deadlocks"]
        history = progress["history"]
        epochs_run = progress["epochs_run"]
        start_epoch = epochs_run
        # A resumed run's clock keeps ticking from the interrupted run's
        # accumulated training time, so ``time_limit`` budgets span the
        # whole run, not just the final leg.
        start = time.perf_counter() - progress["elapsed"]

        try:
            return self._train_loop(
                checkpoint_fn,
                start_epoch,
                start,
                best_reward,
                best_episode,
                best_breakdown,
                best_placement,
                deadlocks,
                history,
                epochs_run,
            )
        finally:
            # Never strand collection workers behind a finished — or
            # interrupted — trainer; the pool respawns lazily if train()
            # is called again.
            self.close_collector()

    def _train_loop(
        self,
        checkpoint_fn,
        start_epoch,
        start,
        best_reward,
        best_episode,
        best_breakdown,
        best_placement,
        deadlocks,
        history,
        epochs_run,
    ) -> TrainingResult:
        cfg = self.config
        progress = self._progress
        for epoch in range(start_epoch, cfg.epochs):
            if (
                cfg.time_limit is not None
                and time.perf_counter() - start > cfg.time_limit
            ):
                break
            if cfg.entropy_coef_final is not None and cfg.epochs > 1:
                fraction = epoch / (cfg.epochs - 1)
                self.ppo.config = replace(
                    cfg.ppo,
                    entropy_coef=linear_schedule(
                        cfg.ppo.entropy_coef, cfg.entropy_coef_final, fraction
                    ),
                )
            buffer = RolloutBuffer(cfg.gamma, cfg.gae_lambda)
            rewards = []
            epoch_obs = []
            # Global index of the epoch's first episode — captured
            # before collection advances the counter, so position k in
            # the merged list IS global episode epoch_base + k.
            if self.async_collect:
                epoch_base, collected = self._collect_epoch_async(epoch)
            else:
                epoch_base = self._episode_index
                collected = self.collect_episodes(cfg.episodes_per_epoch)
            for position, (episode, info) in enumerate(collected):
                rewards.append(episode.total_reward)
                if info.get("deadlock"):
                    deadlocks += 1
                breakdown = info.get("breakdown")
                episode_number = epoch_base + position
                if breakdown is not None and _improves_best(
                    breakdown.reward, episode_number, best_reward, best_episode
                ):
                    best_reward = breakdown.reward
                    best_episode = episode_number
                    best_breakdown = breakdown
                    best_placement = info["placement"]
                intrinsic = None
                if self.rnd is not None:
                    obs_array = np.stack(episode.observations)
                    intrinsic = self.rnd.intrinsic_reward(obs_array)
                    epoch_obs.append(obs_array)
                buffer.add_episode(episode, intrinsic_rewards=intrinsic)
            batch = buffer.compute()
            stats = self.ppo.update(batch, self._ppo_rng)
            if self.rnd is not None and epoch_obs:
                stats["rnd_loss"] = self.rnd.update(np.concatenate(epoch_obs))
            entry = {
                "epoch": epoch,
                "mean_reward": float(np.mean(rewards)),
                "max_reward": float(np.max(rewards)),
                "best_reward": float(best_reward),
                "elapsed": time.perf_counter() - start,
                **stats,
            }
            history.append(entry)
            epochs_run = epoch + 1
            progress.update(
                epochs_run=epochs_run,
                best_reward=best_reward,
                best_episode=best_episode,
                best_breakdown=best_breakdown,
                best_placement=best_placement,
                deadlocks=deadlocks,
                elapsed=time.perf_counter() - start,
            )
            if cfg.log_every and epoch % cfg.log_every == 0:
                _logger.info(
                    "epoch %d mean_reward %.4f best %.4f entropy %.3f",
                    epoch,
                    entry["mean_reward"],
                    best_reward,
                    stats.get("entropy", float("nan")),
                )
            if (
                checkpoint_fn is not None
                and cfg.checkpoint_every
                and epochs_run % cfg.checkpoint_every == 0
                and epochs_run < cfg.epochs
            ):
                checkpoint_fn(self.state_dict())

        progress["elapsed"] = time.perf_counter() - start
        return TrainingResult(
            best_reward=float(best_reward),
            best_breakdown=best_breakdown,
            best_placement=best_placement,
            history=history,
            epochs_run=epochs_run,
            elapsed=progress["elapsed"],
            deadlock_count=deadlocks,
        )

    # ------------------------------------------------------------------
    # full-state checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Everything needed to resume training bitwise.

        Network weights, Adam first/second moments and step counter,
        the PPO RNG generator state (``bit_generator.state``),
        the RND predictor + its optimizer and running observation/bonus
        statistics (the frozen target re-derives from the seed), the
        global episode counter (the only collection state sharded
        workers depend on — their per-episode streams re-derive from
        (seed, index)), and the training progress (best layout so far
        with its episode index, history, deadlock count, elapsed
        budget).

        Under ``async_collect`` the in-flight prefetch is captured too
        (``async_prefetch``: the pending block's index range and the
        exact stale weight bytes it must be collected with).  The
        prefetched *episodes* are deliberately not persisted — they are
        a pure function of those bytes and indices, so a resumed run
        discards-and-recollects them bitwise.
        """
        # The history list must be snapshotted, not aliased: train()
        # keeps appending to the live list, which would retroactively
        # grow an in-memory checkpoint taken at epoch k.  (Entries are
        # never mutated after append, so a shallow list copy suffices;
        # network/optimizer state dicts already copy their arrays.)
        progress = dict(self._progress)
        progress["history"] = list(progress["history"])
        state = {
            "seed": self.config.seed,
            "batch_size": self.config.batch_size,
            # Recorded for provenance only: per-episode streams are
            # derived statelessly from (seed, episode_index), so a run
            # may legally resume under a *different* collect_jobs or
            # collect_workers and stay bitwise.
            "collect_jobs": self.config.collect_jobs,
            "collect_workers": self.config.collect_workers,
            # Semantic, unlike collect_jobs: an async run's data comes
            # from a one-update-older policy, so resuming under the
            # other mode cannot reproduce the original run.
            "async_collect": bool(self.config.async_collect),
            "async_prefetch": (
                None
                if self._pending is None
                else {
                    "weights": self._stale_weights,
                    "start_index": int(self._pending[0]),
                    "count": int(self._pending[1]),
                }
            ),
            "episode_index": self._episode_index,
            "network": self.network.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "ppo_rng": self._ppo_rng.bit_generator.state,
            "progress": progress,
            "rnd": None,
        }
        if self.rnd is not None:
            state["rnd"] = {
                "predictor": self.rnd.predictor.state_dict(),
                "optimizer": self.rnd.optimizer.state_dict(),
                "obs_stats": _stats_state(self.rnd.obs_stats),
                "bonus_stats": _stats_state(self.rnd.bonus_stats),
            }
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict`; the next :meth:`train` resumes.

        Loading into a trainer with a different seed or collection
        mode is allowed (weight transfer is legitimate) but warned
        about: a *resumed* run is only bitwise-faithful when both
        match.
        """
        if state.get("seed") != self.config.seed:
            _logger.warning(
                "checkpoint seed %s != trainer seed %s; resuming will not "
                "reproduce the original run",
                state.get("seed"),
                self.config.seed,
            )
        if bool(state.get("async_collect", False)) != bool(
            self.config.async_collect
        ):
            _logger.warning(
                "checkpoint async_collect=%s but trainer async_collect=%s; "
                "the two modes collect each epoch with different-aged "
                "policies, so resuming will not reproduce the original run",
                bool(state.get("async_collect", False)),
                self.config.async_collect,
            )
        self._episode_index = int(state["episode_index"])
        self._pending = None
        self._stale_weights = None
        prefetch = state.get("async_prefetch")
        if prefetch is not None:
            if self.config.async_collect:
                # The interrupted run had already dispatched (and
                # discarded) this block; re-collect it from the same
                # stale bytes on resume — bitwise, by purity.
                self._stale_weights = bytes(prefetch["weights"])
                self._pending = (
                    int(prefetch["start_index"]),
                    int(prefetch["count"]),
                )
            else:
                # Lockstep resume of an async checkpoint: the block was
                # never consumed, so rewind the counter to keep episode
                # indices contiguous (the mode-mismatch warning above
                # already flagged non-reproducibility).
                self._episode_index -= int(prefetch["count"])
        self.network.load_state_dict(state["network"])
        self.optimizer.load_state_dict(state["optimizer"])
        self._ppo_rng.bit_generator.state = state["ppo_rng"]
        self._progress = dict(state["progress"])
        self._progress["history"] = list(self._progress["history"])
        rnd_state = state.get("rnd")
        if (rnd_state is None) != (self.rnd is None):
            raise ValueError(
                "checkpoint and trainer disagree on use_rnd; cannot resume"
            )
        if rnd_state is not None:
            self.rnd.predictor.load_state_dict(rnd_state["predictor"])
            self.rnd.optimizer.load_state_dict(rnd_state["optimizer"])
            _load_stats_state(self.rnd.obs_stats, rnd_state["obs_stats"])
            _load_stats_state(self.rnd.bonus_stats, rnd_state["bonus_stats"])

    def save_checkpoint(self, path) -> None:
        """Write a full resumable checkpoint (versioned payload schema)."""
        save_payload(self.state_dict(), path, kind=TRAINER_CHECKPOINT_KIND)

    def load_checkpoint(self, path) -> None:
        """Load a checkpoint written by :meth:`save_checkpoint`.

        Legacy weight-only archives raise
        :class:`~repro.nn.LegacyCheckpointError` — they have no
        optimizer, RNG or progress state, so "loading" one would
        silently resume with reset Adam moments and a fresh RNG.
        """
        self.load_state_dict(load_payload(path, kind=TRAINER_CHECKPOINT_KIND))


def _stats_state(stats) -> dict:
    return {
        "mean": np.asarray(stats.mean).copy(),
        "var": np.asarray(stats.var).copy(),
        "count": float(stats.count),
    }


def _load_stats_state(stats, state: dict) -> None:
    stats.mean = np.array(state["mean"], dtype=np.float64, copy=True)
    stats.var = np.array(state["var"], dtype=np.float64, copy=True)
    stats.count = float(state["count"])
