"""Lease-based multi-machine collection: bitwise invariance under
faults, fencing, degradation, and clean lifecycle.

Covers the PR-9 tentpole guarantees:

* remote collection is **bitwise** identical to the in-process replica
  at any ``workers`` granularity, with any number of leased workers —
  including fewer workers than slices (work stealing) and a worker
  that connects *before* the coordinator exists (reconnect backoff);
* every fault path converges to the same bytes: a result frame lost in
  transit (task timeout fences the wedged lease), a corrupted result
  (checksum fences the connection), a chaos disconnect (worker
  reconnects and re-leases), a silently dead worker (lease expiry
  requeues its slice);
* **first-delivery-wins**: a duplicate or stale (wrong-epoch) delivery
  is counted and dropped, never double-merged;
* transient slice errors re-queue and retry; deterministic slice
  errors raise :class:`RemoteSliceError` without retry;
* the degradation ladder (remote -> local pool -> in-process) keeps
  results bitwise, and a bounded re-probe lifts degradation only once
  a worker actually holds a lease again;
* lifecycle: coordinator shutdown drains leased workers to a clean
  exit 0; a worker's reconnect budget bounds give-up; the trainer
  integration (``collect_workers``) trains bitwise vs in-process and
  kill+resumes bitwise across a *different* worker count.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.agent.networks import ActorCritic
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.nn import dumps_payload
from repro.parallel import remote as remote_module
from repro.parallel.chaos import CHAOS_ENV, ChaosInjector, ChaosSpec, set_chaos
from repro.parallel.collector import (
    POLICY_PAYLOAD_KIND,
    EpisodeCollector,
    ReplicaCollector,
    partition_episodes,
)
from repro.parallel.faults import RetryPolicy
from repro.parallel.remote import (
    SLICE_RESULT_KIND,
    RemoteSliceError,
    run_worker,
)
from repro.parallel.transport import recv_frame, send_frame
from repro.reward import RewardCalculator, RewardConfig
from repro.rl import PPOConfig, RNDConfig

CHANNELS = (4, 8, 8)
BATCH = 2
SEED = 3


@pytest.fixture(autouse=True)
def _no_chaos():
    yield
    set_chaos(None)


@pytest.fixture
def parts(small_system, small_fast_model):
    calc = RewardCalculator(
        small_fast_model,
        RewardConfig(lambda_wl=1e-4, use_bump_assignment=False),
    )
    return small_system, calc, EnvConfig(grid_size=10)


@pytest.fixture
def weights(parts):
    system, calc, env_config = parts
    env = BatchedFloorplanEnv(system, calc, env_config)
    network = ActorCritic(
        env.observation_shape,
        env.n_actions,
        channels=CHANNELS,
        rng=np.random.default_rng(0),
    )
    return dumps_payload(network.state_dict(), kind=POLICY_PAYLOAD_KIND)


def _collector(parts, **overrides):
    system, calc, env_config = parts
    defaults = dict(
        workers=4,
        batch_size=BATCH,
        seed=SEED,
        encoder_channels=CHANNELS,
        lease_s=10.0,
        worker_wait_s=20.0,
    )
    defaults.update(overrides)
    return EpisodeCollector(system, calc, env_config, **defaults)


def _reference(parts, weights, start, count, workers=4, greedy=False):
    system, calc, env_config = parts
    replica = ReplicaCollector(
        system, calc, env_config, CHANNELS, BATCH, SEED
    )
    slices = list(enumerate(partition_episodes(start, count, BATCH, workers)))
    results = replica.collect(weights, slices, greedy)
    return [pair for index, _ in slices for pair in results[index]]


def _distill(pairs):
    """Bitwise-comparable episode pairs (wall-clock fields excluded)."""
    out = []
    for episode, summary in pairs:
        breakdown = summary["breakdown"]
        out.append(
            (
                float(episode.total_reward).hex(),
                float(breakdown.reward).hex(),
                float(breakdown.wirelength).hex(),
                float(breakdown.max_temperature_c).hex(),
                float(breakdown.thermal_penalty).hex(),
                sorted(summary["placement"].positions.items()),
            )
        )
    return out


def _fast_policy():
    return RetryPolicy(backoff_base=0.02, backoff_max=0.2, seed=1)


def _start_worker(host, port, worker_id, **kwargs):
    """``run_worker`` on a thread; returns (thread, exit-code box)."""
    box = {}
    kwargs.setdefault("policy", _fast_policy())

    def target():
        try:
            box["code"] = run_worker(host, port, worker_id=worker_id, **kwargs)
        except OSError as error:
            box["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# ----------------------------------------------------------------------
# bitwise invariance on the happy path
# ----------------------------------------------------------------------


class TestRemoteBitwise:
    @pytest.mark.parametrize(
        "workers,leased", [(1, 1), (3, 2), (4, 1), (4, 2)]
    )
    def test_matches_in_process_replica(self, parts, weights, workers, leased):
        """Any slice granularity x any (smaller) leased worker count ==
        the in-process replica, bitwise.  leased < slices exercises the
        work-stealing queue."""
        reference = _reference(parts, weights, 0, 5, workers=workers)
        collector = _collector(parts, workers=workers)
        host, port = collector.address
        stop = threading.Event()
        threads = [
            _start_worker(host, port, f"bw{index}", stop_event=stop)[0]
            for index in range(leased)
        ]
        try:
            got = collector.collect_with_weights(weights, 0, 5)
        finally:
            collector.close()
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert len(got) == 5
        assert _distill(got) == _distill(reference)
        assert not collector.degraded

    def test_prefetch_and_cancel(self, parts, weights):
        reference = _reference(parts, weights, 5, 5)
        collector = _collector(parts)
        host, port = collector.address
        stop = threading.Event()
        thread, _ = _start_worker(host, port, "pw0", stop_event=stop)
        try:
            # A cancelled prefetch consumes nothing: the follow-up
            # prefetch of the same range returns the same bytes.
            collector.prefetch(weights, 5, 5)
            assert collector.prefetching
            collector.cancel_prefetch()
            assert not collector.prefetching
            collector.prefetch(weights, 5, 5)
            with pytest.raises(RuntimeError, match="already outstanding"):
                collector.prefetch(weights, 10, 5)
            got = collector.collect_prefetched()
        finally:
            collector.close()
            stop.set()
            thread.join(timeout=10)
        assert _distill(got) == _distill(reference)

    def test_worker_connects_before_coordinator_exists(self, parts, weights):
        """A worker started first simply backs off (connection refused
        is transient) and leases once the coordinator binds."""
        port = _free_port()
        stop = threading.Event()
        thread, box = _start_worker(
            "127.0.0.1", port, "early", stop_event=stop
        )
        time.sleep(0.15)  # let it fail at least one connection attempt
        reference = _reference(parts, weights, 0, 3)
        collector = _collector(parts, port=port)
        try:
            got = collector.collect_with_weights(weights, 0, 3)
        finally:
            collector.close()
            stop.set()
            thread.join(timeout=10)
        assert _distill(got) == _distill(reference)
        assert box.get("code") == 0


# ----------------------------------------------------------------------
# fault recovery: every path converges to the same bytes
# ----------------------------------------------------------------------


class TestFaultRecovery:
    def test_lost_result_frame_fences_on_task_timeout(self, parts, weights):
        """A result frame swallowed in transit leaves the worker live
        and heartbeating but the slice undelivered: only the per-task
        clock (not the heartbeat clock) can catch it."""
        set_chaos(
            ChaosInjector(
                [
                    ChaosSpec(
                        point="transport.send",
                        mode="drop",
                        match=":result",
                        times=1,
                    )
                ]
            )
        )
        reference = _reference(parts, weights, 0, 5)
        collector = _collector(parts, slice_timeout=0.7)
        host, port = collector.address
        stop = threading.Event()
        thread, _ = _start_worker(host, port, "dropw", stop_event=stop)
        try:
            got = collector.collect_with_weights(weights, 0, 5)
            stats = collector._remote.coordinator.stats
            assert stats["fenced"] >= 1
            assert stats["requeued"] >= 1
        finally:
            collector.close()
            stop.set()
            thread.join(timeout=10)
        assert _distill(got) == _distill(reference)

    def test_corrupted_result_fences_and_redispatches(self, parts, weights):
        set_chaos(
            ChaosInjector(
                [
                    ChaosSpec(
                        point="transport.send",
                        mode="corrupt",
                        match=":result",
                        times=1,
                    )
                ]
            )
        )
        reference = _reference(parts, weights, 0, 5)
        collector = _collector(parts)
        host, port = collector.address
        stop = threading.Event()
        thread, _ = _start_worker(host, port, "corw", stop_event=stop)
        try:
            got = collector.collect_with_weights(weights, 0, 5)
        finally:
            collector.close()
            stop.set()
            thread.join(timeout=10)
        assert _distill(got) == _distill(reference)

    def test_chaos_disconnect_reconnects_and_releases(self, parts, weights):
        set_chaos(
            ChaosInjector(
                [
                    ChaosSpec(
                        point="transport.recv",
                        mode="disconnect",
                        match="worker:discw",
                        times=1,
                    )
                ]
            )
        )
        reference = _reference(parts, weights, 0, 5)
        collector = _collector(parts)
        host, port = collector.address
        stop = threading.Event()
        thread, _ = _start_worker(host, port, "discw", stop_event=stop)
        try:
            got = collector.collect_with_weights(weights, 0, 5)
            # The same worker re-leased after the injected disconnect.
            assert collector._remote.coordinator.stats["registered"] >= 2
        finally:
            collector.close()
            stop.set()
            thread.join(timeout=10)
        assert _distill(got) == _distill(reference)

    def test_silent_death_lease_expiry_requeues_slice(self, parts, weights):
        """A registered client that takes a task and never heartbeats
        again (machine death) is fenced at lease expiry; its slice
        lands on a live worker; nothing is merged twice."""
        reference = _reference(parts, weights, 0, 5)
        collector = _collector(parts, lease_s=0.6)
        host, port = collector.address

        dead = socket.create_connection((host, port), timeout=5.0)
        dead.settimeout(5.0)
        send_frame(dead, "hello", {"worker": "deadw"})
        kind, _, _ = recv_frame(dead)
        assert kind == "lease"
        # Leased and ready — it may now be handed a slice — but it
        # never beats and never serves.

        stop = threading.Event()
        thread, _ = _start_worker(host, port, "livew", stop_event=stop)
        try:
            got = collector.collect_with_weights(weights, 0, 5)
            assert collector._remote.coordinator.stats["fenced"] >= 1
        finally:
            dead.close()
            collector.close()
            stop.set()
            thread.join(timeout=10)
        assert len(got) == 5  # exactly: no slice lost, none duplicated
        assert _distill(got) == _distill(reference)

    def test_duplicate_and_stale_deliveries_never_double_merge(
        self, parts, weights
    ):
        """A worker that delivers every slice twice — and then replays
        an old epoch's result into the next epoch — changes nothing:
        first-delivery-wins keyed on (epoch, slice, digest)."""
        system, calc, env_config = parts
        replica = ReplicaCollector(
            system, calc, env_config, CHANNELS, BATCH, SEED
        )
        collector = _collector(parts, workers=2)
        host, port = collector.address

        sock = socket.create_connection((host, port), timeout=10.0)
        sock.settimeout(10.0)
        send_frame(sock, "hello", {"worker": "twicew"})
        kind, lease_meta, _ = recv_frame(sock)
        assert kind == "lease"
        replayed = {}
        done = threading.Event()

        def serve_twice():
            while not done.is_set():
                try:
                    frame = recv_frame(sock, idle_ok=True)
                except OSError:
                    return
                if frame is None:
                    continue
                kind, meta, blob = frame
                if kind == "shutdown":
                    return
                if kind != "task":
                    continue
                index = meta["task"]
                pairs = replica.collect(
                    blob, [(index, (meta["start"], meta["count"]))], False
                )[index]
                echo = {
                    "task": index,
                    "epoch": meta["epoch"],
                    "digest": meta["digest"],
                    "lease": lease_meta["lease"],
                }
                result = dumps_payload(
                    {"pairs": pairs}, kind=SLICE_RESULT_KIND
                )
                send_frame(sock, "result", echo, result)  # delivery
                send_frame(sock, "result", echo, result)  # duplicate
                replayed.setdefault("frame", (echo, result))

        server = threading.Thread(target=serve_twice, daemon=True)
        server.start()
        try:
            reference = _reference(parts, weights, 0, 5, workers=2)
            got = collector.collect_with_weights(weights, 0, 5)
            stats = collector._remote.coordinator.stats
            assert stats["duplicate_results"] >= 1
            assert len(got) == 5
            assert _distill(got) == _distill(reference)

            # Replay epoch 1's result while epoch 2 is in flight: the
            # epoch-id key rejects it as stale.
            echo, result = replayed["frame"]
            send_frame(sock, "result", echo, result)
            reference2 = _reference(parts, weights, 5, 5, workers=2)
            got2 = collector.collect_with_weights(weights, 5, 5)
            assert stats["stale_results"] >= 1
            assert _distill(got2) == _distill(reference2)
        finally:
            done.set()
            collector.close()
            server.join(timeout=10)
            sock.close()

    def test_transient_slice_error_requeues_and_retries(
        self, parts, weights, monkeypatch
    ):
        reference = _reference(parts, weights, 0, 5)
        collector = _collector(parts)  # built before the patch: its
        # fallback replica stays healthy

        real = remote_module.ReplicaCollector

        class FlakyReplica(real):
            failures = 0

            def collect(self, *args, **kwargs):
                if FlakyReplica.failures < 1:
                    FlakyReplica.failures += 1
                    raise OSError("transient remote hiccup")
                return super().collect(*args, **kwargs)

        monkeypatch.setattr(remote_module, "ReplicaCollector", FlakyReplica)
        host, port = collector.address
        stop = threading.Event()
        thread, _ = _start_worker(host, port, "flakyw", stop_event=stop)
        try:
            got = collector.collect_with_weights(weights, 0, 5)
            assert (
                collector._remote.coordinator.stats["transient_task_errors"] >= 1
            )
        finally:
            collector.close()
            stop.set()
            thread.join(timeout=10)
        assert _distill(got) == _distill(reference)

    def test_deterministic_slice_error_raises_without_retry(
        self, parts, weights, monkeypatch
    ):
        collector = _collector(parts)
        real = remote_module.ReplicaCollector

        class BrokenReplica(real):
            calls = 0

            def collect(self, *args, **kwargs):
                BrokenReplica.calls += 1
                raise ValueError("deterministic slice bug")

        monkeypatch.setattr(remote_module, "ReplicaCollector", BrokenReplica)
        host, port = collector.address
        stop = threading.Event()
        thread, _ = _start_worker(host, port, "brokew", stop_event=stop)
        try:
            with pytest.raises(RemoteSliceError, match="deterministic"):
                collector.collect_with_weights(weights, 0, 5)
            assert BrokenReplica.calls == 1  # no blind retry of a bug
        finally:
            collector.close()
            stop.set()
            thread.join(timeout=10)


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------


class TestDegradationLadder:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_workers_falls_back_bitwise(self, parts, weights, jobs):
        reference = _reference(parts, weights, 0, 5)
        collector = _collector(
            parts,
            worker_wait_s=0.2,
            max_failures=1,
            jobs=jobs,
        )
        try:
            got = collector.collect_with_weights(weights, 0, 5)
            assert collector.degraded
            # Degraded rounds skip the coordinator entirely (no
            # worker_wait_s stall per epoch).
            got2 = collector.collect_with_weights(weights, 5, 5)
        finally:
            collector.close()
        assert _distill(got) == _distill(reference)
        assert _distill(got2) == _distill(_reference(parts, weights, 5, 5))

    def test_three_rungs_in_one_epoch_bitwise(
        self, parts, weights, tmp_path, monkeypatch
    ):
        """No remote worker ever leases and a pool worker crashes: in
        one call the slices fall remote -> pool -> in-process, both
        worker rungs degrade, and the merge is still bitwise."""
        sentinels = tmp_path / "chaos"
        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps(
                {
                    "point": "collector.slice",
                    "mode": "crash",
                    "times": 1,
                    "dir": str(sentinels),
                }
            ),
        )
        collector = _collector(
            parts, worker_wait_s=0.2, jobs=2, max_failures=1
        )
        try:
            got = collector.collect_with_weights(weights, 0, 5)
            assert collector._remote.degraded
            assert collector._rungs[-1].degraded  # the pool rung
            # Both worker rungs are skipped now: in-process, no stall.
            got2 = collector.collect_with_weights(weights, 5, 5)
            assert collector._remote.degraded
            assert collector._rungs[-1].degraded  # the pool rung
        finally:
            collector.close()
        assert len(list(sentinels.iterdir())) == 1  # the crash fired
        assert _distill(got) == _distill(_reference(parts, weights, 0, 5))
        assert _distill(got2) == _distill(_reference(parts, weights, 5, 5))

    def test_reprobe_lifts_degradation_once_a_worker_leases(
        self, parts, weights
    ):
        collector = _collector(
            parts, worker_wait_s=0.2, max_failures=1, reprobe_after=1
        )
        stop = threading.Event()
        thread = None
        try:
            collector.collect_with_weights(weights, 0, 3)
            assert collector.degraded

            # One non-remote round; still degraded with no worker up
            # (the re-probe is gated on a live lease, not just time).
            collector.collect_with_weights(weights, 3, 3)
            collector.collect_with_weights(weights, 6, 3)
            assert collector.degraded

            host, port = collector.address
            thread, _ = _start_worker(host, port, "backw", stop_event=stop)
            deadline = time.monotonic() + 10.0
            while (
                not collector._remote.coordinator.live_workers()
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert collector._remote.coordinator.live_workers() >= 1

            got = collector.collect_with_weights(weights, 9, 3)
            assert not collector.degraded
        finally:
            collector.close()
            stop.set()
            if thread is not None:
                thread.join(timeout=10)
        assert _distill(got) == _distill(_reference(parts, weights, 9, 3))


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------


class TestWorkerLifecycle:
    def test_shutdown_drains_workers_to_exit_zero(self, parts, weights):
        collector = _collector(parts)
        host, port = collector.address
        stop = threading.Event()
        workers = [
            _start_worker(host, port, f"drain{index}", stop_event=stop)
            for index in range(2)
        ]
        deadline = time.monotonic() + 10.0
        while (
            collector._remote.coordinator.live_workers() < 2
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        collector.collect_with_weights(weights, 0, 3)
        collector.close()
        for thread, box in workers:
            thread.join(timeout=10)
            assert box.get("code") == 0, box
        # close() is idempotent and the port is released.
        collector.close()

    def test_stop_event_exits_zero_mid_lease(self, parts):
        collector = _collector(parts)
        host, port = collector.address
        stop = threading.Event()
        thread, box = _start_worker(host, port, "stopw", stop_event=stop)
        deadline = time.monotonic() + 10.0
        while (
            not collector._remote.coordinator.live_workers()
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        stop.set()
        thread.join(timeout=10)
        assert box.get("code") == 0
        collector.close()

    def test_reconnect_budget_exhaustion_raises(self):
        port = _free_port()  # nothing listens here
        with pytest.raises(OSError):
            run_worker(
                "127.0.0.1",
                port,
                worker_id="giveupw",
                policy=_fast_policy(),
                max_reconnects=2,
                connect_timeout=0.5,
            )

    def test_validation(self, parts):
        system, calc, env_config = parts
        with pytest.raises(ValueError, match="workers >= 1"):
            EpisodeCollector(
                system, calc, env_config, workers=-1, batch_size=2, seed=0
            )
        with pytest.raises(ValueError, match="batch_size >= 2"):
            EpisodeCollector(
                system, calc, env_config, workers=2, batch_size=1, seed=0
            )


# ----------------------------------------------------------------------
# trainer integration
# ----------------------------------------------------------------------


def _hex(value) -> str:
    return float(value).hex()


def _distill_result(result) -> dict:
    return {
        "best_reward": _hex(result.best_reward),
        "history": [
            {
                key: (_hex(v) if isinstance(v, float) else v)
                for key, v in entry.items()
                if key != "elapsed"
            }
            for entry in result.history
        ],
        "placement": (
            None
            if result.best_placement is None
            else sorted(result.best_placement.positions.items())
        ),
    }


@pytest.fixture
def trainer_env(parts):
    system, calc, env_config = parts
    return BatchedFloorplanEnv(system, calc, env_config)


def _make_trainer(env, **overrides):
    defaults = dict(
        epochs=2,
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


class _Interrupted(Exception):
    pass


class TestTrainerIntegration:
    def test_training_is_bitwise_vs_in_process(self, trainer_env):
        reference = _make_trainer(trainer_env).train()
        trainer = _make_trainer(trainer_env, collect_workers=2)
        host, port = trainer.collector_address
        stop = threading.Event()
        thread, box = _start_worker(host, port, "tw0", stop_event=stop)
        try:
            result = trainer.train()
        finally:
            trainer.close_collector()
            stop.set()
            thread.join(timeout=10)
        assert _distill_result(result) == _distill_result(reference)
        assert box.get("code") == 0

    def test_kill_and_resume_across_worker_counts(self, trainer_env, tmp_path):
        """Remote run killed at epoch 1 resumes bitwise under a
        *different* slice granularity and leased worker count."""
        reference = _make_trainer(trainer_env).train()

        path = tmp_path / "ckpt.npz"
        interrupted = _make_trainer(
            trainer_env, collect_workers=2, checkpoint_every=1
        )
        host, port = interrupted.collector_address
        stop = threading.Event()
        thread, _ = _start_worker(host, port, "kr0", stop_event=stop)

        def kill_at_checkpoint(state):
            interrupted.save_checkpoint(path)
            raise _Interrupted()

        try:
            with pytest.raises(_Interrupted):
                interrupted.train(checkpoint_fn=kill_at_checkpoint)
        finally:
            interrupted.close_collector()
            stop.set()
            thread.join(timeout=10)
        assert not interrupted._collector.active

        resumed = _make_trainer(
            trainer_env, collect_workers=3, checkpoint_every=1
        )
        host, port = resumed.collector_address
        stop = threading.Event()
        threads = [
            _start_worker(host, port, f"kr{index}", stop_event=stop)[0]
            for index in range(2)
        ]
        resumed.load_checkpoint(path)
        assert resumed._progress["epochs_run"] == 1
        try:
            result = resumed.train()
        finally:
            resumed.close_collector()
            stop.set()
            for worker_thread in threads:
                worker_thread.join(timeout=10)
        assert _distill_result(result) == _distill_result(reference)

    def test_state_dict_records_collect_workers(self, trainer_env):
        trainer = _make_trainer(trainer_env, collect_workers=2)
        try:
            state = trainer.state_dict()
        finally:
            trainer.close_collector()
        assert state["collect_workers"] == 2

    def test_config_validation(self, trainer_env):
        with pytest.raises(ValueError, match="collect_workers"):
            TrainerConfig(collect_workers=-1)
        with pytest.raises(ValueError, match="collect_bind"):
            TrainerConfig(collect_workers=2, collect_bind="no-port-here")
        # The bind format is only validated when remote collection is
        # actually on; the default stays inert.
        TrainerConfig(collect_bind="no-port-here")
