"""Deterministic fault injection: the chaos harness and every failure
path it makes CI-testable.

Covers the PR-7 chaos guarantees:

* spec parsing/validation and the env-var + override plumbing;
* fire accounting — ``times`` caps per process, and with ``dir`` the
  cap holds across every process via sentinel files;
* ``store.write`` injection (the store satellite's test hook);
* a scheduler worker SIGKILL'd once mid-sweep: the sweep completes via
  retry with results identical to an undisturbed run;
* ``keep_going`` + a deterministically failing job: quarantined while
  siblings complete;
* collector chaos: a crashed slice worker, a hung slice (straggler),
  and repeated pool loss all end in a **bitwise identical** training
  run (retry / rebuild / in-process degradation respectively), and a
  failing worker initializer surfaces promptly as ``WorkerInitError``
  with the real traceback.
"""

import functools
import json
import logging
import time
import uuid
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.experiments.report import MethodResult
from repro.experiments.runner import _inject_rl_runtime
from repro.parallel import JobSpec, RetryPolicy, SweepReport, run_jobs
from repro.parallel import chaos as chaos_module
from repro.parallel.collector import _PoolRung
from repro.parallel.chaos import (
    CHAOS_ENV,
    ChaosInjector,
    ChaosSpec,
    DeterministicChaosError,
    TransientChaosError,
    chaos_from_env,
    maybe_fail,
    set_chaos,
)
from repro.parallel.faults import WorkerInitError
from repro.reward import RewardCalculator, RewardConfig
from repro.store import RunStore
from test_collector import _distill, _make_trainer


@pytest.fixture(autouse=True)
def _clean_chaos(monkeypatch):
    """No chaos leaks into (or out of) any test."""
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    set_chaos(None)
    yield
    set_chaos(None)


def _chaos_env(monkeypatch, *specs) -> None:
    document = [dict(spec) for spec in specs]
    monkeypatch.setenv(
        CHAOS_ENV,
        json.dumps(document[0] if len(document) == 1 else document),
    )


def _fast_policy(**overrides) -> RetryPolicy:
    defaults = dict(max_attempts=3, backoff_base=0.0, jitter=0.0)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


# top-level (picklable) job functions
def _square(x):
    return x * x


def _stub_rl_arm(marker_dir, sleep_s=0.25):
    """Stand-in RL arm: self-measures its runtime like the real one.

    Leaves one marker file per *invocation* and fires a mid-body chaos
    point, so a test can crash attempt 1 partway through and verify the
    runtime fed downstream covers only the successful attempt.
    """
    from pathlib import Path

    start = time.perf_counter()
    Path(marker_dir, f"attempt-{uuid.uuid4().hex}").write_text("")
    time.sleep(sleep_s)
    chaos_module.maybe_fail("scheduler.job", "stub-rl-body")
    return MethodResult(
        system="stub",
        method="RLPlanner",
        reward=0.0,
        wirelength=0.0,
        temperature_c=0.0,
        runtime_s=time.perf_counter() - start,
    )


def _stub_sa_arm(time_limit=None, time_matched=None):
    """Stand-in fast-SA arm: reports the budget it was handed."""
    return {"time_limit": time_limit, "time_matched": time_matched}


# ----------------------------------------------------------------------
# harness mechanics
# ----------------------------------------------------------------------


class TestChaosSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            ChaosSpec(point="scheduler.job", mode="explode")
        with pytest.raises(ValueError, match="point"):
            ChaosSpec(point="nonsense.site")
        with pytest.raises(ValueError, match="error"):
            ChaosSpec(point="scheduler.job", error="sometimes")
        with pytest.raises(ValueError, match="times"):
            ChaosSpec(point="scheduler.job", times=-1)

    def test_env_parsing_dict_and_list(self, monkeypatch):
        monkeypatch.setenv(
            CHAOS_ENV, '{"point": "scheduler.job", "mode": "raise"}'
        )
        injector = chaos_from_env()
        assert [spec.point for spec in injector.specs] == ["scheduler.job"]
        monkeypatch.setenv(
            CHAOS_ENV,
            '[{"point": "scheduler.job"}, {"point": "store.write"}]',
        )
        injector = chaos_from_env()
        assert [spec.point for spec in injector.specs] == [
            "scheduler.job",
            "store.write",
        ]

    def test_no_config_is_a_noop(self):
        assert chaos_from_env() is None
        maybe_fail("scheduler.job", "anything")  # must not raise

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, '{"point": "store.write"}')
        override = ChaosInjector([ChaosSpec(point="scheduler.job")])
        set_chaos(override)
        assert chaos_from_env() is override


class TestFireAccounting:
    def test_times_caps_fires_per_process(self):
        injector = ChaosInjector(
            [ChaosSpec(point="scheduler.job", mode="raise", times=2)]
        )
        set_chaos(injector)
        for _ in range(2):
            with pytest.raises(TransientChaosError):
                maybe_fail("scheduler.job", "arm")
        maybe_fail("scheduler.job", "arm")  # exhausted: no fire

    def test_times_zero_is_unlimited(self):
        set_chaos(
            ChaosInjector(
                [ChaosSpec(point="scheduler.job", mode="raise", times=0)]
            )
        )
        for _ in range(5):
            with pytest.raises(TransientChaosError):
                maybe_fail("scheduler.job")

    def test_dir_accounting_is_cross_process(self, tmp_path):
        # Two injectors over the same dir stand in for two worker
        # processes: the fire budget is shared, not per-injector.
        spec = ChaosSpec(
            point="scheduler.job", mode="raise", times=1, dir=str(tmp_path)
        )
        first, second = ChaosInjector([spec]), ChaosInjector([spec])
        with pytest.raises(TransientChaosError):
            first.maybe_fail("scheduler.job")
        second.maybe_fail("scheduler.job")  # budget already spent
        sentinels = list(tmp_path.iterdir())
        assert len(sentinels) == 1

    def test_match_filters_on_detail(self):
        set_chaos(
            ChaosInjector(
                [
                    ChaosSpec(
                        point="scheduler.job",
                        mode="raise",
                        match="rl",
                        times=0,
                    )
                ]
            )
        )
        maybe_fail("scheduler.job", "sa/arm")  # no match, no fire
        with pytest.raises(TransientChaosError):
            maybe_fail("scheduler.job", "rl/arm")

    def test_error_family_selection(self):
        set_chaos(
            ChaosInjector(
                [
                    ChaosSpec(
                        point="store.write",
                        mode="raise",
                        error="deterministic",
                    )
                ]
            )
        )
        with pytest.raises(DeterministicChaosError):
            maybe_fail("store.write")
        assert not RetryPolicy.is_transient(DeterministicChaosError("x"))
        assert RetryPolicy.is_transient(TransientChaosError("x"))


class TestStoreWriteInjection:
    def test_put_fires_the_injection_point(self, tmp_path):
        store = RunStore(tmp_path / "store")
        set_chaos(
            ChaosInjector([ChaosSpec(point="store.write", mode="raise")])
        )
        with pytest.raises(TransientChaosError):
            store.put("ab" * 32, {"value": 1})
        # Budget spent: the retry goes through and the artifact lands.
        store.put("ab" * 32, {"value": 1})
        assert store.get("ab" * 32) == {"value": 1}


# ----------------------------------------------------------------------
# scheduler under chaos
# ----------------------------------------------------------------------


class TestSchedulerChaos:
    def test_crashed_worker_retries_to_identical_results(
        self, tmp_path, monkeypatch
    ):
        specs = [
            JobSpec(job_id=f"arm/{x}", fn=_square, kwargs=dict(x=x))
            for x in range(4)
        ]
        reference = run_jobs(list(specs), jobs=2, policy=_fast_policy())

        _chaos_env(
            monkeypatch,
            dict(
                point="scheduler.job",
                mode="crash",
                match="arm/1",
                times=1,
                dir=str(tmp_path / "chaos"),
            ),
        )
        report = SweepReport()
        disturbed = run_jobs(
            list(specs), jobs=2, policy=_fast_policy(), report=report
        )
        assert disturbed == reference
        assert report.retried == ["arm/1"]
        assert report.ok

    def test_transient_raise_retries_sequentially(self, monkeypatch):
        _chaos_env(
            monkeypatch,
            dict(point="scheduler.job", mode="raise", match="a", times=1),
        )
        report = SweepReport()
        outcome = run_jobs(
            [JobSpec("a", _square, dict(x=6))],
            jobs=1,
            policy=_fast_policy(),
            report=report,
        )
        assert outcome == {"a": 36}
        assert report.retried == ["a"]

    def test_deterministic_chaos_quarantines_under_keep_going(
        self, monkeypatch
    ):
        _chaos_env(
            monkeypatch,
            dict(
                point="scheduler.job",
                mode="raise",
                error="deterministic",
                match="arm/2",
                times=0,
            ),
        )
        report = SweepReport()
        outcome = run_jobs(
            [
                JobSpec(job_id=f"arm/{x}", fn=_square, kwargs=dict(x=x))
                for x in range(4)
            ],
            jobs=2,
            policy=_fast_policy(),
            keep_going=True,
            report=report,
        )
        assert outcome == {"arm/0": 0, "arm/1": 1, "arm/3": 9}
        assert report.quarantined == ["arm/2"]
        assert report.outcomes["arm/2"].error_type in (
            "DeterministicChaosError",
            "RemoteTraceback",
        )

    def test_retried_rl_arm_feeds_final_attempt_runtime_downstream(
        self, tmp_path, monkeypatch
    ):
        """A crash-then-retry RL arm must hand the time-matched SA arm
        the *successful attempt's* self-measured wall clock — never the
        sum across attempts (satellite: retry/time-matching attribution).
        """
        markers = tmp_path / "markers"
        markers.mkdir()
        sleep_s = 0.25
        rl_id = "bench/RLPlanner"
        specs = [
            JobSpec(
                rl_id,
                _stub_rl_arm,
                dict(marker_dir=str(markers), sleep_s=sleep_s),
            ),
            JobSpec(
                "bench/TAP-2.5D*(FastThermal)",
                _stub_sa_arm,
                dict(time_matched=True),
                needs=(rl_id,),
                inject=functools.partial(_inject_rl_runtime, rl_id),
            ),
        ]
        # SIGKILL the RL arm partway through its first attempt; the
        # second attempt runs to completion.
        _chaos_env(
            monkeypatch,
            dict(
                point="scheduler.job",
                mode="crash",
                match="stub-rl-body",
                times=1,
                dir=str(tmp_path / "chaos"),
            ),
        )
        report = SweepReport()
        outcome = run_jobs(
            specs, jobs=2, policy=_fast_policy(), report=report
        )
        assert report.outcomes[rl_id].status == "retried"
        assert report.outcomes[rl_id].attempts == 2
        # Attempt 1 really ran (and burned wall clock) before dying.
        assert len(list(markers.iterdir())) == 2
        injected = outcome["bench/TAP-2.5D*(FastThermal)"]["time_limit"]
        # Exactly the dependency's self-measured runtime, verbatim...
        assert injected == outcome[rl_id].runtime_s
        # ...and attempt-2-sized, not the ~2x sum across both attempts.
        assert sleep_s <= injected < 1.6 * sleep_s


# ----------------------------------------------------------------------
# collector under chaos (bitwise guarantees)
# ----------------------------------------------------------------------


@pytest.fixture
def trainer_env(small_system, small_fast_model):
    calc = RewardCalculator(
        small_fast_model, RewardConfig(lambda_wl=1e-4, use_bump_assignment=False)
    )
    return BatchedFloorplanEnv(small_system, calc, EnvConfig(grid_size=10))


class TestCollectorChaos:
    def test_crashed_slice_worker_redispatches_bitwise(
        self, trainer_env, tmp_path, monkeypatch
    ):
        reference = _distill(_make_trainer(trainer_env).train())
        _chaos_env(
            monkeypatch,
            dict(
                point="collector.slice",
                mode="crash",
                times=1,
                dir=str(tmp_path / "chaos"),
            ),
        )
        trainer = _make_trainer(trainer_env, collect_jobs=2)
        disturbed = _distill(trainer.train())
        assert disturbed == reference
        assert not trainer._collector.degraded
        # The crash really happened (one sentinel claimed).
        assert len(list((tmp_path / "chaos").iterdir())) == 1

    def test_hung_slice_worker_is_rebuilt_bitwise(
        self, trainer_env, tmp_path, monkeypatch
    ):
        reference = _distill(_make_trainer(trainer_env).train())
        _chaos_env(
            monkeypatch,
            dict(
                point="collector.slice",
                mode="hang",
                hang_s=60.0,
                times=1,
                dir=str(tmp_path / "chaos"),
            ),
        )
        trainer = _make_trainer(trainer_env, collect_jobs=2)
        trainer._collector.slice_timeout = 2.0
        disturbed = _distill(trainer.train())
        assert disturbed == reference

    def test_persistent_pool_loss_degrades_in_process_bitwise(
        self, trainer_env, tmp_path, monkeypatch
    ):
        reference = _distill(_make_trainer(trainer_env).train())
        # Every slice task crashes its worker, forever: the pool can
        # never finish a round, so the collector must fall back to
        # in-process collection — and still match bitwise.
        _chaos_env(
            monkeypatch,
            dict(point="collector.slice", mode="crash", times=0),
        )
        trainer = _make_trainer(trainer_env, collect_jobs=2)
        trainer._collector.max_failures = 1
        disturbed = _distill(trainer.train())
        assert disturbed == reference
        assert trainer._collector.degraded

    def test_pool_killed_in_epoch_2_is_rebuilt_by_epoch_4(
        self, trainer_env, tmp_path, monkeypatch, caplog
    ):
        """Degradation is no longer sticky: after ``reprobe_after``
        in-process epochs the collector re-probes the pool, so a kill in
        epoch 2 is healed by epoch 4 (satellite: bounded re-probe)."""
        reference = _distill(_make_trainer(trainer_env, epochs=4).train())
        # Epochs cover episodes [0,5), [5,10), [10,15), [15,20): killing
        # slice@5 hits epoch 2, and max_failures=1 degrades at once.
        _chaos_env(
            monkeypatch,
            dict(
                point="collector.slice",
                mode="crash",
                match="slice@5",
                times=1,
                dir=str(tmp_path / "chaos"),
            ),
        )
        trainer = _make_trainer(trainer_env, epochs=4, collect_jobs=2)
        trainer._collector.max_failures = 1
        assert trainer._collector.reprobe_after == 2
        logger = logging.getLogger("repro")
        logger.addHandler(caplog.handler)
        try:
            disturbed = _distill(trainer.train())
        finally:
            logger.removeHandler(caplog.handler)
        assert disturbed == reference
        # Epoch 3 ran in-process; epoch 4's re-probe rebuilt the pool
        # (train() releases the workers on completion, so the evidence
        # is the re-probe itself plus a second pool start).
        assert not trainer._collector.degraded
        messages = [rec.getMessage() for rec in caplog.records]
        assert any("re-probing the collection pool" in m for m in messages)
        assert (
            sum("starting 2 collection workers" in m for m in messages) == 2
        )
        assert len(list((tmp_path / "chaos").iterdir())) == 1

    def test_reprobe_zero_keeps_legacy_sticky_degradation(
        self, trainer_env, tmp_path, monkeypatch
    ):
        reference = _distill(_make_trainer(trainer_env, epochs=4).train())
        _chaos_env(
            monkeypatch,
            dict(
                point="collector.slice",
                mode="crash",
                match="slice@5",
                times=1,
                dir=str(tmp_path / "chaos"),
            ),
        )
        trainer = _make_trainer(trainer_env, epochs=4, collect_jobs=2)
        trainer._collector.max_failures = 1
        trainer._collector.reprobe_after = 0
        disturbed = _distill(trainer.train())
        assert disturbed == reference
        assert trainer._collector.degraded  # never re-probed

    def test_crashed_prefetch_worker_recovers_bitwise(
        self, trainer_env, tmp_path, monkeypatch
    ):
        """SIGKILL a worker running an async-prefetched slice: the epoch
        is re-collected with the *stored* stale weights, so the run
        completes bitwise-equal to an undisturbed async run and the pool
        is not degraded (tentpole: async chaos coverage)."""
        reference_trainer = _make_trainer(
            trainer_env, epochs=3, collect_jobs=2, async_collect=True
        )
        reference = _distill(reference_trainer.train())
        reference_trainer.close_collector()

        _chaos_env(
            monkeypatch,
            dict(
                point="collector.prefetch",
                mode="crash",
                times=1,
                dir=str(tmp_path / "chaos"),
            ),
        )
        trainer = _make_trainer(
            trainer_env, epochs=3, collect_jobs=2, async_collect=True
        )
        disturbed = _distill(trainer.train())
        trainer_degraded = trainer._collector.degraded
        trainer.close_collector()
        assert disturbed == reference
        assert not trainer_degraded
        assert len(list((tmp_path / "chaos").iterdir())) == 1

    def test_persistent_pool_loss_in_async_mode_degrades_bitwise(
        self, trainer_env, monkeypatch
    ):
        """Async + a pool that can never finish a round: collection
        degrades in-process but keeps the pipelined staleness schedule,
        so the result still matches an undisturbed async run bitwise."""
        reference_trainer = _make_trainer(
            trainer_env, epochs=3, collect_jobs=2, async_collect=True
        )
        reference = _distill(reference_trainer.train())
        reference_trainer.close_collector()

        _chaos_env(
            monkeypatch,
            dict(point="collector.prefetch", mode="crash", times=0),
            dict(point="collector.slice", mode="crash", times=0),
        )
        trainer = _make_trainer(
            trainer_env, epochs=3, collect_jobs=2, async_collect=True
        )
        trainer._collector.max_failures = 1
        trainer._collector.reprobe_after = 0
        disturbed = _distill(trainer.train())
        trainer_degraded = trainer._collector.degraded
        trainer.close_collector()
        assert disturbed == reference
        assert trainer_degraded

    def test_failed_prefetch_dispatch_degrades_after_max_failures(
        self, trainer_env, monkeypatch
    ):
        """A pool that breaks at every prefetch dispatch: each failure
        is one failed round whose slices run one rung down at harvest
        (no second dispatch), so the pool degrades after exactly
        ``max_failures`` epochs and the run still matches bitwise."""
        reference_trainer = _make_trainer(
            trainer_env, epochs=4, collect_jobs=2, async_collect=True
        )
        reference = _distill(reference_trainer.train())
        reference_trainer.close_collector()

        dispatched = []
        real_dispatch = _PoolRung.dispatch

        def dispatch(rung, weights, slices, greedy, chaos_point):
            dispatched.append(chaos_point)
            if chaos_point == "collector.prefetch":
                raise BrokenProcessPool("pool broke at prefetch dispatch")
            return real_dispatch(rung, weights, slices, greedy, chaos_point)

        monkeypatch.setattr(_PoolRung, "dispatch", dispatch)
        trainer = _make_trainer(
            trainer_env, epochs=4, collect_jobs=2, async_collect=True
        )
        trainer._collector.max_failures = 2
        trainer._collector.reprobe_after = 0
        disturbed = _distill(trainer.train())
        trainer_degraded = trainer._collector.degraded
        trainer.close_collector()
        assert disturbed == reference
        assert trainer_degraded
        # Epoch 0 collects synchronously on the pool; the prefetches
        # for epochs 1 and 2 fail and degrade it; epoch 3's prefetch
        # sends nothing.
        assert dispatched == [
            "collector.slice",
            "collector.prefetch",
            "collector.prefetch",
        ]

    def test_init_failure_surfaces_as_worker_init_error(
        self, trainer_env, monkeypatch
    ):
        _chaos_env(
            monkeypatch,
            dict(
                point="collector.init",
                mode="raise",
                error="deterministic",
                times=0,
            ),
        )
        trainer = _make_trainer(trainer_env, collect_jobs=2)
        with pytest.raises(WorkerInitError) as excinfo:
            trainer.collect_episodes(4)
        # The real traceback travelled with it.
        assert "DeterministicChaosError" in str(excinfo.value)
        assert not trainer._collector.active  # pool not stranded
