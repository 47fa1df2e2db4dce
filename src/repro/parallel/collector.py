"""PPO episode collection: one lockstep loop, one collector, one ladder.

The trainer makes every episode a pure function of
(policy weights, its own ``episode.{index}`` RNG stream): episode ``k``
of a run draws from ``SeedSequence(seed).rng(f"episode.{k}")`` no
matter which lockstep wave, process or machine runs it.  Everything in
this module rests on that property:

* :func:`collect_wave` / :func:`collect_slice` — the one and only
  lockstep collection loop.  In-process collection, pool workers and
  remote workers all run *this* code, so no execution backend can
  drift from another by construction.
* :class:`ReplicaCollector` — an env + network replica that runs that
  loop from broadcast weight bytes (the versioned
  :func:`repro.nn.dumps_payload` schema — the same bytes a checkpoint
  would hold).  It is the in-process rung and the engine inside every
  pool and remote worker.
* :class:`EpisodeCollector` — the trainer-facing collector.  It cuts an
  epoch into contiguous slices of balanced size
  (:func:`partition_episodes`), hands them to a ladder of slice
  executors — leased TCP workers (:mod:`repro.parallel.remote`), a
  local process pool, and in-process collection — and merges the
  slices back in index order.  Slices ignore wave boundaries: an
  episode's trajectory depends on its stream alone, not on the width
  or live count of the wave it rides, so the merged epoch is **bitwise
  identical** to in-process collection at any worker count, under any
  fault (regression-pinned for the plain, RND, batched and async
  trainers, including kill+resume).

Because the per-episode streams are *stateless* — derived on demand
from ``(seed, index)`` — workers carry no RNG state between epochs.
The only cross-epoch collection state is the trainer's global episode
counter, which the checkpoint payload already captures, so kill+resume
stays bitwise under any executor.

**The degrade ladder.**  One rule covers every rung.  A round that
leaves slices undelivered (a dead or stalled pool worker, no leased
remote worker for ``worker_wait_s``, a transient-failure storm) sends
its missing slices one rung down *in the same call*; ``max_failures``
consecutive failed rounds degrade a rung; after ``reprobe_after``
rounds below it, a degraded rung is re-probed — one probation round —
once it reports ready (the pool is always ready, the remote rung once a
worker holds a lease).  In-process collection is the floor and never
fails over.  Deterministic errors (a slice that raises a real bug, a
:class:`~repro.parallel.faults.WorkerInitError`) propagate at once:
they would reproduce on every rung.

**Pipelined (async) collection.**  :meth:`EpisodeCollector.prefetch`
dispatches a slice set to the top live rung *without blocking* and
:meth:`EpisodeCollector.collect_prefetched` harvests it later — the
handoff behind the trainer's ``async_collect`` mode.  The prefetch
holds its own serialized weight bytes, so the learner may mutate the
live network meanwhile, and slices lost at harvest are re-collected
from the stored bytes: a fault can never change which policy
collected an epoch.  A prefetch and its harvest are one round, so a
failed dispatch counts once and the harvest starts one rung down.
"""

from __future__ import annotations

import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait

import numpy as np

from repro.nn import dumps_payload, loads_payload
from repro.parallel import chaos
from repro.parallel.faults import RetryPolicy, WorkerInitError
from repro.rl import Episode
from repro.utils import SeedSequence, get_logger

__all__ = [
    "EpisodeCollector",
    "POLICY_PAYLOAD_KIND",
    "ReplicaCollector",
    "SliceRung",
    "collect_one_slice",
    "collect_slice",
    "collect_wave",
    "partition_episodes",
]

_logger = get_logger("parallel.collector")

#: ``kind`` tag of the per-epoch policy-weight broadcast payload.
POLICY_PAYLOAD_KIND = "collector-policy"


def episode_rng(seeds: SeedSequence, index: int) -> np.random.Generator:
    """The RNG stream of global episode ``index`` (pure in (seed, index))."""
    return seeds.rng(f"episode.{index}")


def partition_episodes(start_index: int, count: int, jobs: int) -> list:
    """Contiguous, balanced ``(start, size)`` slices of an epoch.

    ``min(jobs, count)`` slices whose sizes differ by at most one (the
    first ``count % jobs`` get the extra episode), cut with no regard
    for lockstep waves: every episode's trajectory is independent of
    the width and live count of the wave it rides (see
    :meth:`ActorCritic.act_batch`), so a slice may start mid-wave and
    end in a remainder wave of any width, down to one.  Empty slices
    are never emitted, so every returned slice maps to one worker task.
    """
    if count < 1:
        return []
    workers = min(jobs, count)
    base, extra = divmod(count, workers)
    ends = [start_index + k * base + min(k, extra) for k in range(workers + 1)]
    return [(begin, end - begin) for begin, end in zip(ends, ends[1:])]


def collect_wave(
    network, batched_env, rngs, head_rows: int, greedy: bool = False
) -> list:
    """One lockstep wave of ``len(rngs)`` episodes through ``batched_env``.

    Row ``i`` samples exclusively from ``rngs[i]``; the conv stack runs
    per-row shape-stable GEMMs and the policy head products of exactly
    ``head_rows`` rows (see :meth:`ActorCritic.act_batch`), so each
    episode's trajectory is independent of its wave companions and of
    how many are still live — the invariance every
    ``collect_jobs``/``batch_size`` guarantee in this repo rests on.
    """
    wave_n = len(rngs)
    episodes = [Episode() for _ in range(wave_n)]
    infos: list = [{} for _ in range(wave_n)]
    observations, masks = batched_env.reset(wave_n)
    live = batched_env.live_indices
    static_channels = batched_env.observation_builder.STATIC_CHANNELS
    first_step = True
    while len(live):
        actions, log_probs, values = network.act_batch(
            observations,
            masks,
            [rngs[i] for i in live],
            greedy=greedy,
            static_channels=static_channels,
            # Right after a lockstep reset every row is identical, so
            # the forward runs once and broadcasts.
            shared_rows=first_step,
            head_rows=head_rows,
        )
        first_step = False
        for row, index in enumerate(live):
            episodes[index].add_step(
                observations[row],
                masks[row],
                int(actions[row]),
                float(log_probs[row]),
                float(values[row]),
            )
        result = batched_env.step(actions)
        for index, reward, info in result.finished:
            episodes[index].set_terminal_reward(reward)
            infos[index] = info
        observations, masks = result.observations, result.masks
        live = result.live_indices
    return list(zip(episodes, infos))


def collect_slice(
    network,
    batched_env,
    seeds: SeedSequence,
    start_index: int,
    count: int,
    width: int,
    greedy: bool = False,
) -> list:
    """Collect episodes ``start_index .. start_index+count-1`` in waves.

    Exactly the trainer's in-process batched loop: waves of
    ``min(width, remaining)`` episodes, each episode on its own
    ``episode.{index}`` stream.  Called identically by the trainer
    (one slice spanning the whole epoch) and by pool workers (one
    contiguous sub-slice each).
    """
    collected = []
    for offset in range(0, count, width):
        wave_n = min(width, count - offset)
        rngs = [
            episode_rng(seeds, start_index + offset + k)
            for k in range(wave_n)
        ]
        # Policy-head products keep the configured width, however
        # narrow this slice's waves are.
        collected += collect_wave(network, batched_env, rngs, width, greedy)
    return collected


class ReplicaCollector:
    """An env + network replica running the lockstep loop on demand.

    The in-process rung of :class:`EpisodeCollector` and the engine of
    every pool and remote worker.  Construction is deferred: the
    batched env is built on first use and the network replica only
    when weight bytes arrive, so a lockstep trainer that passes its
    live network never pays for a second one.  The first payload
    builds the replica straight from its state dict
    (:meth:`ActorCritic.from_state_dict`, no random init); later
    payloads load into it in place.
    """

    def __init__(
        self, system, reward_calculator, env_config, channels, batch_size, seed
    ):
        self._env_args = (system, reward_calculator, env_config)
        self._channels = tuple(channels)
        self.batch_size = batch_size
        self._seeds = SeedSequence(seed)
        self._network = None
        self._batched_env = None

    def _env(self):
        # Imported lazily: repro.agent.__init__ imports the trainer,
        # which imports this module — module-level imports of the env
        # and the networks would close that cycle at start-up.
        from repro.env import BatchedFloorplanEnv

        if self._batched_env is None:
            self._batched_env = BatchedFloorplanEnv(*self._env_args)
        return self._batched_env

    def build(self) -> "ReplicaCollector":
        """Construct the env now, not on first use.

        The network has no weights to hold until a payload arrives, so
        :meth:`_replica` builds it from the first one.
        """
        self._env()
        return self

    def _replica(self, weights: bytes):
        """The network replica, holding the broadcast ``weights``."""
        from repro.agent.networks import ActorCritic

        state = loads_payload(weights, kind=POLICY_PAYLOAD_KIND)
        if self._network is None:
            env = self._env()
            self._network = ActorCritic.from_state_dict(
                state, env.observation_shape, env.n_actions, self._channels
            )
        else:
            self._network.load_state_dict(state)
        return self._network

    def collect(
        self, weights: bytes | None, slices: list, greedy: bool, network=None
    ) -> dict:
        """Run ``[(index, (start, size)), ...]``; returns {index: pairs}.

        Loads the broadcast ``weights`` into the replica — never a live
        training network, which under async collection may already
        hold post-update weights.  A lockstep caller may pass its live
        ``network`` instead and skip the payload round trip: the
        payload round-trips bit for bit, so both agree bitwise.
        """
        if network is None:
            network = self._replica(weights)
        batched_env = self._env()
        return {
            index: collect_slice(
                network,
                batched_env,
                self._seeds,
                start,
                size,
                self.batch_size,
                greedy=greedy,
            )
            for index, (start, size) in slices
        }


def collect_one_slice(
    replica, weights, start_index, count, greedy, chaos_point
) -> list:
    """A worker's task: fire ``chaos_point``, collect one slice.

    ``chaos_point`` names the injection site (``collector.slice`` for
    lockstep rounds, ``collector.prefetch`` for slices dispatched ahead
    of time by the async trainer), so chaos runs can target one mode
    without disturbing the other.  Shared by pool and remote workers.
    """
    chaos.maybe_fail(chaos_point, f"slice@{start_index}")
    return replica.collect(weights, [(0, (start_index, count))], greedy)[0]


# ----------------------------------------------------------------------
# pool worker side
# ----------------------------------------------------------------------

#: This pool worker's :class:`ReplicaCollector`, built once by the
#: initializer — or the traceback of its failed construction.
_WORKER_STATE: ReplicaCollector | str | None = None


def _init_worker(*replica_args) -> None:
    """Pool initializer: build this worker's replica once.

    A construction failure (bad env config, missing table file...) is
    **captured**, not raised: an initializer that raises kills the
    worker, the executor respawns it, it dies again, and the parent
    eventually sees an opaque ``BrokenProcessPool`` with the real
    traceback lost to a worker's stderr.  Instead the traceback is
    parked and the first task re-raises it as a
    :class:`WorkerInitError` — promptly and debuggably.
    """
    global _WORKER_STATE
    try:
        chaos.maybe_fail("collector.init")
        _WORKER_STATE = ReplicaCollector(*replica_args).build()
    except BaseException:  # noqa: BLE001 - captured for prompt re-raise
        _WORKER_STATE = traceback.format_exc()


def _collect_remote(
    weights: bytes,
    start_index: int,
    count: int,
    greedy: bool,
    chaos_point: str = "collector.slice",
) -> list:
    """Pool task: load the broadcast weights, collect one slice."""
    if _WORKER_STATE is None:  # pragma: no cover - initializer contract
        raise RuntimeError("collector worker was never initialized")
    if isinstance(_WORKER_STATE, str):
        raise WorkerInitError(
            "collection worker failed to initialize:\n" + _WORKER_STATE
        )
    return collect_one_slice(
        _WORKER_STATE, weights, start_index, count, greedy, chaos_point
    )


# ----------------------------------------------------------------------
# slice executors (the rungs above in-process collection)
# ----------------------------------------------------------------------


class SliceRung:
    """One executor on the degrade ladder, plus its ladder state.

    Subclasses implement :meth:`dispatch` (start a slice set, return a
    handle) and :meth:`gather` (await it, fill ``results``, return
    ``None`` or a description of the failure).  The ladder fields are
    owned by :class:`EpisodeCollector`.
    """

    #: Human-readable rung name, used in logs.
    name = ""

    def __init__(self):
        self.failures = 0  # consecutive failed rounds
        self.degraded = False
        self.below = 0  # rounds run below this rung while degraded

    @property
    def active(self) -> bool:
        """Whether the rung holds processes or a socket right now."""
        return False

    def ready(self) -> bool:
        """Whether a degraded rung may be re-probed."""
        return True

    def dispatch(self, weights, slices, greedy, chaos_point):
        raise NotImplementedError

    def gather(self, handle, results: dict, slice_timeout) -> str | None:
        raise NotImplementedError

    def cancel(self, handle) -> None:
        """Drop a dispatched slice set nobody will gather."""

    def reset(self) -> None:
        """Release whatever a failed round may have left wedged."""

    def close(self, wait: bool = True) -> None:
        """Release the rung's resources; they come back lazily."""


class _PoolRung(SliceRung):
    """A persistent local process pool (``jobs`` workers)."""

    name = "collection pool"

    def __init__(self, jobs: int, replica_args: tuple):
        super().__init__()
        self.jobs = jobs
        self._replica_args = replica_args
        self._pool: ProcessPoolExecutor | None = None

    @property
    def active(self) -> bool:
        return self._pool is not None

    def dispatch(self, weights, slices, greedy, chaos_point) -> dict:
        """Submit ``slices``; returns {future: index}."""
        if self._pool is None:
            _logger.info("starting %d collection workers", self.jobs)
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=self._replica_args,
            )
        # Looked up at call time, by module name, so the submitted
        # callable pickles by reference.
        return {
            self._pool.submit(
                _collect_remote, weights, start, size, greedy, chaos_point
            ): index
            for index, (start, size) in slices
        }

    def gather(self, futures: dict, results: dict, slice_timeout):
        pending = set(futures)
        while pending:
            finished, pending = futures_wait(
                pending, timeout=slice_timeout, return_when=FIRST_COMPLETED
            )
            if not finished:
                return (
                    f"no slice completed within slice_timeout="
                    f"{slice_timeout:.1f}s"
                )
            for future in finished:
                error = future.exception()
                if error is None:
                    results[futures[future]] = future.result()
                elif RetryPolicy.is_transient(error):
                    # Dead worker / broken pool: sibling futures are
                    # lost with it.
                    return f"worker lost: {error!r}"
                else:
                    # A real exception from the slice itself (or a
                    # WorkerInitError): reproduces anywhere — raise.
                    raise error
        return None

    def cancel(self, futures: dict) -> None:
        for future in futures:
            future.cancel()

    def reset(self) -> None:
        """Kill the worker processes and forget the pool (hung-safe).

        ``shutdown(wait=True)`` would block on a hung worker forever;
        instead the process table is snapshotted, the executor is
        abandoned with ``cancel_futures``, and the workers are
        terminated outright.  Slices are side-effect-free, so a killed
        worker loses nothing another rung cannot reproduce.
        """
        if self._pool is None:
            return
        workers = list((getattr(self._pool, "_processes", None) or {}).values())
        self._pool.shutdown(wait=False, cancel_futures=True)
        for process in workers:
            if process.is_alive():
                process.terminate()
        self._pool = None

    def close(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=not wait)
            self._pool = None


# ----------------------------------------------------------------------
# the collector
# ----------------------------------------------------------------------


class EpisodeCollector:
    """Sliced episode collection down one degrade ladder.

    Parameters
    ----------
    system, reward_calculator, env_config:
        The environment every replica builds (must be picklable for
        the pool and remote rungs — the fast thermal model is; a live
        ``splu``-holding grid solver is not, and RL arms never train
        against one).
    batch_size:
        Lockstep wave width (>= 2).
    seed:
        The trainer seed; every replica re-derives the exact
        per-episode streams from it.
    jobs:
        Local pool workers; ``>= 2`` adds the pool rung.
    workers:
        ``>= 1`` adds the leased-TCP rung (see
        :class:`~repro.parallel.remote.RemoteRung`).  An epoch is cut
        into ``max(jobs, workers)`` balanced slices; ``workers``
        never sets how many workers must connect: leased workers serve
        the queue work-stealing style.
    encoder_channels:
        Conv widths of the actor-critic replica.
    host, port, lease_s, heartbeat_s, worker_wait_s:
        The remote rung's coordinator: bind address (``port=0`` binds
        an ephemeral port, kept across close/reopen), lease expiry,
        heartbeat interval, and how long a round waits with no leased
        worker before it counts as failed.
    slice_timeout:
        Straggler clock for both worker rungs: a pool round in which no
        slice completes for this long, or a remote slice held this long
        by one lease, fails (``None`` = off).
    max_failures:
        Consecutive failed rounds that degrade a rung.
    reprobe_after:
        Rounds below a degraded rung before it is re-probed (``0`` =
        never).  Re-probing never changes results — only which process
        runs the same pure slice functions.

    Pool workers spawn lazily and persist across rounds; the remote
    coordinator binds at construction so workers can lease in before
    the first epoch.  :meth:`close` (or the context manager) releases
    both; any failure or interrupt mid-collection kills the pool
    workers before propagating, so a Ctrl-C never strands them behind
    a dead trainer.
    """

    def __init__(
        self,
        system,
        reward_calculator,
        env_config,
        *,
        batch_size: int,
        seed: int,
        jobs: int = 1,
        workers: int = 0,
        encoder_channels: tuple = (16, 32, 32),
        host: str = "127.0.0.1",
        port: int = 0,
        lease_s: float = 15.0,
        heartbeat_s: float | None = None,
        worker_wait_s: float = 30.0,
        slice_timeout: float | None = None,
        max_failures: int = 3,
        reprobe_after: int = 2,
    ):
        if batch_size < 2:
            raise ValueError(
                f"EpisodeCollector needs batch_size >= 2, got {batch_size}"
            )
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if workers < 0:
            raise ValueError(
                "remote collection needs workers >= 1 (0 = no remote "
                f"rung), got {workers}"
            )
        if max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        if reprobe_after < 0:
            raise ValueError("reprobe_after must be >= 0 (0 = never)")
        self.batch_size = batch_size
        self.slice_timeout = slice_timeout
        self.max_failures = max_failures
        self.reprobe_after = reprobe_after
        self._granularity = max(jobs, workers)
        replica_args = (
            system,
            reward_calculator,
            env_config,
            tuple(encoder_channels),
            batch_size,
            seed,
        )
        self._replica = ReplicaCollector(*replica_args)
        self._remote = None
        if workers:
            # Deferred import: the remote rung pulls in the socket
            # transport, which local collection never needs.
            from repro.parallel.remote import RemoteRung

            self._remote = RemoteRung(
                replica_args,
                host=host,
                port=port,
                lease_s=lease_s,
                heartbeat_s=heartbeat_s,
                worker_wait_s=worker_wait_s,
            )
        self._rungs = [self._remote] if self._remote is not None else []
        if jobs >= 2:
            self._rungs.append(_PoolRung(jobs, replica_args))
        # Outstanding prefetch (async mode) or None.  At most one.
        self._prefetch: dict | None = None

    # -- state ----------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether pool workers or a remote coordinator are alive."""
        return any(rung.active for rung in self._rungs)

    @property
    def degraded(self) -> bool:
        """Whether any rung above in-process collection is degraded."""
        return any(rung.degraded for rung in self._rungs)

    @property
    def address(self) -> tuple | None:
        """The ``(host, port)`` remote workers connect to, or None."""
        return None if self._remote is None else self._remote.address

    @property
    def prefetching(self) -> bool:
        """Whether a prefetched slice set is outstanding."""
        return self._prefetch is not None

    # -- the ladder -----------------------------------------------------

    def _slices(self, start_index: int, count: int) -> list:
        slices = partition_episodes(start_index, count, self._granularity)
        return list(enumerate(slices))

    def _begin_round(self) -> list:
        """Re-probe what is due; returns the rungs live this round.

        A degraded rung counts every round run below it (the round
        that degraded it included).  After ``reprobe_after`` such
        rounds, and once the rung reports ready, it gets one probation
        round: ``failures`` restarts at ``max_failures - 1``, so one
        more failed round re-degrades it.
        """
        live = []
        for rung in self._rungs:
            if (
                rung.degraded
                and self.reprobe_after
                and rung.below >= self.reprobe_after
                and rung.ready()
            ):
                _logger.warning(
                    "re-probing the %s after %d round(s) below it — one "
                    "probation round, results unaffected",
                    rung.name,
                    rung.below,
                )
                rung.degraded = False
                rung.failures = self.max_failures - 1
            if rung.degraded:
                rung.below += 1
            else:
                live.append(rung)
        return live

    def _round_failed(self, rung: SliceRung, reason: str, missing: int):
        rung.failures += 1
        rung.reset()
        _logger.warning(
            "%s round failed (%s); %d missing slice(s) go one rung down "
            "[failure %d/%d]",
            rung.name,
            reason,
            missing,
            rung.failures,
            self.max_failures,
        )
        if rung.failures < self.max_failures:
            return
        _logger.error(
            "the %s failed %d consecutive round(s); degrading it — results "
            "stay bitwise identical, only wall clock suffers%s",
            rung.name,
            rung.failures,
            (
                f"; re-probed after {self.reprobe_after} round(s) below it"
                if self.reprobe_after
                else ""
            ),
        )
        rung.degraded = True
        rung.below = 1

    @staticmethod
    def _dispatch(rung, weights, slices, greedy, chaos_point) -> tuple:
        """``(handle, None)``, or ``(None, failure)`` on a transient error."""
        try:
            return rung.dispatch(weights, slices, greedy, chaos_point), None
        except Exception as error:  # noqa: BLE001 - classified
            # A worker dying mid-dispatch breaks the pool and makes the
            # next submit raise: a lost round, not a crash.
            if not RetryPolicy.is_transient(error):
                raise
            return None, f"dispatch failed: {error!r}"

    def _run(
        self,
        weights,
        slices: list,
        greedy: bool,
        chaos_point: str,
        live: list,
        handle=None,
        network=None,
    ) -> list:
        """Drive ``slices`` down ``live`` then in-process; merged list.

        ``handle`` is a slice set already dispatched to ``live[0]``
        (the prefetch handoff), gathered before anything new is sent.
        """
        results: dict = {}
        try:
            for rung in live:
                missing = [item for item in slices if item[0] not in results]
                if not missing:
                    break
                failure = None
                if handle is None:
                    handle, failure = self._dispatch(
                        rung, weights, missing, greedy, chaos_point
                    )
                if failure is None:
                    failure = rung.gather(handle, results, self.slice_timeout)
                handle = None
                if failure is None:
                    rung.failures = 0
                else:
                    self._round_failed(
                        rung, failure, len(slices) - len(results)
                    )
            missing = [item for item in slices if item[0] not in results]
            if missing:
                results.update(
                    self._replica.collect(weights, missing, greedy, network)
                )
        except BaseException:
            # A real bug, WorkerInitError, or Ctrl-C in the parent:
            # never strand pool workers behind it.
            for rung in live:
                rung.reset()
            raise
        # Slices are keyed by partition index, so this IS the fixed
        # index-order merge the best-placement selection relies on.
        return [pair for index, _ in slices for pair in results[index]]

    # -- collection -----------------------------------------------------

    def collect(
        self, network, start_index: int, count: int, greedy: bool = False
    ) -> list:
        """Collect ``count`` episodes starting at global ``start_index``.

        Returns ``[(Episode, info), ...]`` in strict index order —
        bitwise identical to one :func:`collect_slice` over the range.
        With no live worker rung the live ``network`` collects
        directly, with no weight encode; otherwise its weights are
        broadcast once.
        """
        live = self._begin_round()
        weights = None
        if live:
            weights = dumps_payload(
                network.state_dict(), kind=POLICY_PAYLOAD_KIND
            )
        return self._run(
            weights,
            self._slices(start_index, count),
            greedy,
            "collector.slice",
            live,
            network=network,
        )

    def collect_with_weights(
        self,
        weights: bytes,
        start_index: int,
        count: int,
        greedy: bool = False,
    ) -> list:
        """Like :meth:`collect`, but from already-serialized weights.

        The async trainer's entry point: the payload bytes pin *which*
        policy collects, whatever the live network holds by then.
        """
        return self._run(
            weights,
            self._slices(start_index, count),
            greedy,
            "collector.slice",
            self._begin_round(),
        )

    def prefetch(
        self,
        weights: bytes,
        start_index: int,
        count: int,
        greedy: bool = False,
    ) -> None:
        """Dispatch a slice set to the top live rung without waiting.

        ``weights`` is a self-contained serialized payload, so the
        caller may mutate its live network (run the PPO update) while
        workers collect.  Harvest with :meth:`collect_prefetched`.
        With no live worker rung nothing is sent and the harvest
        collects synchronously from the same bytes — overlap lost,
        results unchanged.  A failed dispatch is a failed round of the
        top rung, so the harvest starts one rung down.
        """
        if self._prefetch is not None:
            raise RuntimeError(
                "a prefetch is already outstanding; harvest it with "
                "collect_prefetched() or drop it with cancel_prefetch()"
            )
        slices = self._slices(start_index, count)
        live = self._begin_round()
        handle = None
        if live:
            handle, failure = self._dispatch(
                live[0], weights, slices, greedy, "collector.prefetch"
            )
            if failure is not None:
                self._round_failed(live[0], failure, len(slices))
                live = live[1:]
        self._prefetch = {
            "weights": weights,
            "slices": slices,
            "greedy": greedy,
            "live": live,
            "handle": handle,
        }

    def collect_prefetched(self) -> list:
        """Harvest the outstanding prefetch (blocking), merged in order."""
        state, self._prefetch = self._prefetch, None
        if state is None:
            raise RuntimeError("no prefetch is outstanding")
        return self._run(
            state["weights"],
            state["slices"],
            state["greedy"],
            "collector.prefetch",
            state["live"],
            handle=state["handle"],
        )

    def cancel_prefetch(self) -> None:
        """Drop the outstanding prefetch, if any (idempotent).

        Nothing is consumed, so determinism is unaffected: queued
        slices are cancelled, running ones finish and are discarded.
        """
        state, self._prefetch = self._prefetch, None
        if state is not None and state.get("handle") is not None:
            state["live"][0].cancel(state["handle"])

    def close(self, wait: bool = True) -> None:
        """Release workers and the coordinator (idempotent).

        Both come back lazily — the coordinator on the same port — if
        collection continues.
        """
        self.cancel_prefetch()
        for rung in self._rungs:
            rung.close(wait=wait)

    def __enter__(self) -> "EpisodeCollector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(wait=exc_info[0] is None)
