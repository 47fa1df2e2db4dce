"""Process-level experiment scheduler + shared-cache tests.

Covers the PR-4 tentpole guarantees:

* scheduler mechanics — submission-order results, forward-only
  dependency edges, parent-side injection, failure propagation, and the
  in-process ``jobs=1`` fallback;
* concurrency safety of the thermal-table disk cache — two processes
  characterizing the same fingerprint produce exactly one ``.npz``;
* determinism — table-1-style method arms and table-2 dataset shards
  are **bitwise** identical at ``jobs=2`` and ``jobs=1`` (the golden
  test in ``test_experiments.py`` separately pins ``jobs=1`` to the
  pre-scheduler sequential harness);
* the dependency-ordered wall-clock matching of the ``TAP-2.5D*`` arm,
  including the satellite fix: time matching without an RL arm now
  warns and records ``time_matched: False`` instead of silently
  running unmatched;
* the PR-6 scheduler bugfixes — fail-fast (a failing job surfaces
  before unrelated in-flight siblings finish), pool teardown on
  KeyboardInterrupt, and ``resolve_jobs("auto")`` never propagating a
  dead CPU probe.
"""

import contextlib
import logging
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from golden_utils import build_golden_system
from repro.chiplet import Interposer
from repro.experiments.runner import (
    ExperimentBudget,
    build_evaluators,
    run_all_methods,
)
from repro.experiments.table2 import run_table2
from repro.parallel import (
    FileLock,
    JobFailedError,
    JobSpec,
    atomic_replace,
    resolve_collect_jobs,
    resolve_jobs,
    run_jobs,
)
from repro.parallel import scheduler as scheduler_module
from repro.reward import RewardConfig
from repro.systems.spec import BenchmarkSpec
from repro.thermal import ThermalConfig
from repro.thermal.characterize import load_or_characterize

# ----------------------------------------------------------------------
# top-level job functions (picklable for pool workers)
# ----------------------------------------------------------------------


def _square(x):
    return x * x


def _add(x, offset=0):
    return x + offset


def _boom():
    raise RuntimeError("boom")


def _slow_square(x):
    time.sleep(0.02)
    return x * x


def _very_slow_square(x):
    time.sleep(4.0)
    return x * x


def _boom_after(delay):
    time.sleep(delay)
    raise RuntimeError("boom")


def _inject_offset(dep_id, kwargs, done):
    kwargs["offset"] = done[dep_id]
    return kwargs


def _characterize_worker(cache_dir, queue):
    tables = load_or_characterize(
        Interposer(20.0, 20.0),
        [(6.0, 6.0)],
        ThermalConfig(rows=12, cols=12, package_margin=4.0),
        position_samples=(2, 2),
        cache_dir=cache_dir,
    )
    queue.put(float(tables.for_size(6.0, 6.0).r_self.sum()))


def _hold_lock_then_report(lock_path, held_event, release_event):
    with FileLock(lock_path):
        held_event.set()
        release_event.wait(timeout=30)


@contextlib.contextmanager
def _capture_repro_logs(caplog):
    """Attach caplog to the ``repro`` logger (it does not propagate)."""
    logger = logging.getLogger("repro")
    logger.addHandler(caplog.handler)
    try:
        yield
    finally:
        logger.removeHandler(caplog.handler)


class TestScheduler:
    def _specs(self):
        return [
            JobSpec("a", _square, dict(x=3)),
            JobSpec("b", _slow_square, dict(x=4)),
            JobSpec(
                "c",
                _add,
                dict(x=100),
                needs=("a",),
                inject=lambda kwargs, done: {**kwargs, "offset": done["a"]},
            ),
        ]

    def test_sequential_results_in_submission_order(self):
        outcome = run_jobs(self._specs(), jobs=1)
        assert list(outcome) == ["a", "b", "c"]
        assert outcome == {"a": 9, "b": 16, "c": 109}

    def test_pool_matches_sequential(self):
        import functools

        specs = [
            JobSpec("a", _square, dict(x=3)),
            JobSpec("b", _slow_square, dict(x=4)),
            JobSpec(
                "c",
                _add,
                dict(x=100),
                needs=("a",),
                inject=functools.partial(_inject_offset, "a"),
            ),
        ]
        outcome = run_jobs(specs, jobs=2)
        assert list(outcome) == ["a", "b", "c"]
        assert outcome == {"a": 9, "b": 16, "c": 109}

    def test_duplicate_job_id_rejected(self):
        specs = [JobSpec("a", _square, dict(x=1)), JobSpec("a", _square, dict(x=2))]
        with pytest.raises(ValueError, match="duplicate"):
            run_jobs(specs, jobs=1)

    def test_backward_only_dependencies_rejected(self):
        specs = [
            JobSpec("a", _square, dict(x=1), needs=("b",)),
            JobSpec("b", _square, dict(x=2)),
        ]
        with pytest.raises(ValueError, match="earlier submission"):
            run_jobs(specs, jobs=1)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_jobs([JobSpec("a", _square, dict(x=1))], jobs=0)

    def test_empty_graph(self):
        assert run_jobs([], jobs=1) == {}
        assert run_jobs([], jobs=2) == {}

    def test_sequential_failure_raises_directly(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_jobs([JobSpec("bad", _boom)], jobs=1)

    def test_pool_failure_carries_job_id(self):
        specs = [JobSpec("ok", _square, dict(x=2)), JobSpec("bad", _boom)]
        with pytest.raises(JobFailedError, match="bad"):
            run_jobs(specs, jobs=2)


class TestPoolTeardown:
    """PR-6 scheduler bugfixes: fail fast, never strand the pool."""

    def test_failure_surfaces_before_slow_sibling_completes(self):
        # Regression: _run_pooled used to raise inside the pool's
        # ``with`` block, whose __exit__ is shutdown(wait=True) — so a
        # job failing at t=0.1s was reported only after the 4-second
        # sibling finished.  With the fix the JobFailedError must
        # surface while the sibling is still running.
        specs = [
            JobSpec("slow", _very_slow_square, dict(x=3)),
            JobSpec("fast-fail", _boom_after, dict(delay=0.1)),
        ]
        start = time.monotonic()
        with pytest.raises(JobFailedError, match="fast-fail"):
            run_jobs(specs, jobs=2)
        elapsed = time.monotonic() - start
        assert elapsed < 3.0, (
            f"failure took {elapsed:.1f}s to surface — the scheduler "
            "waited for the unrelated in-flight job"
        )

    def test_keyboard_interrupt_tears_down_pool(self, monkeypatch):
        # A Ctrl-C while waiting on worker pipes must kill the in-flight
        # supervised workers and re-raise, not leave orphaned processes
        # grinding on behind a dead sweep.
        stopped = []
        original_stop = scheduler_module._stop_worker

        def spy(rec):
            stopped.append(rec.spec.job_id)
            return original_stop(rec)

        monkeypatch.setattr(scheduler_module, "_stop_worker", spy)

        def interrupted_wait(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(scheduler_module, "wait", interrupted_wait)
        with pytest.raises(KeyboardInterrupt):
            run_jobs([JobSpec("a", _slow_square, dict(x=2))], jobs=2)
        assert stopped == ["a"], (
            f"expected the in-flight worker to be stopped, saw {stopped}"
        )
        # Siblings from other tests may still be draining; only this
        # test's worker must be gone.
        for process in multiprocessing.active_children():
            assert process.name != "job-a", (
                f"orphaned supervised worker survived Ctrl-C: {process}"
            )


class TestResolveJobsProbes:
    """``resolve_jobs("auto")`` on exotic hosts: every probe may die."""

    def test_process_cpu_count_none_falls_through(self, monkeypatch):
        # Regression: a present-but-None process_cpu_count used to
        # resolve straight to 1 instead of consulting the remaining
        # probes.
        monkeypatch.setattr(
            scheduler_module.os,
            "process_cpu_count",
            lambda: None,
            raising=False,
        )
        monkeypatch.setattr(
            scheduler_module.os,
            "sched_getaffinity",
            lambda pid: {0, 1, 2},
            raising=False,
        )
        assert resolve_jobs("auto") == 3

    def test_all_probes_dead_resolves_to_one(self, monkeypatch):
        monkeypatch.setattr(
            scheduler_module.os,
            "process_cpu_count",
            lambda: None,
            raising=False,
        )
        monkeypatch.delattr(
            scheduler_module.os, "sched_getaffinity", raising=False
        )
        monkeypatch.setattr(scheduler_module.os, "cpu_count", lambda: None)
        assert resolve_jobs("auto") == 1

    def test_zero_and_raising_probes_clamp_to_one(self, monkeypatch):
        def raising_probe():
            raise OSError("no such syscall")

        monkeypatch.setattr(
            scheduler_module.os,
            "process_cpu_count",
            raising_probe,
            raising=False,
        )
        monkeypatch.setattr(
            scheduler_module.os,
            "sched_getaffinity",
            lambda pid: set(),
            raising=False,
        )
        monkeypatch.setattr(scheduler_module.os, "cpu_count", lambda: 0)
        assert resolve_jobs("auto") == 1


class TestResolveCollectJobs:
    """``--collect-jobs auto``: 1-CPU hosts collect in-process, loudly."""

    def test_auto_on_single_cpu_warns_and_returns_one(
        self, monkeypatch, caplog
    ):
        monkeypatch.setattr(scheduler_module, "_probe_cpu_count", lambda: 1)
        with _capture_repro_logs(caplog):
            assert resolve_collect_jobs("auto") == 1
        assert any(
            rec.levelno >= logging.WARNING
            and "in-process" in rec.getMessage()
            for rec in caplog.records
        )

    def test_auto_on_multicore_is_silent(self, monkeypatch, caplog):
        monkeypatch.setattr(scheduler_module, "_probe_cpu_count", lambda: 4)
        with _capture_repro_logs(caplog):
            assert resolve_collect_jobs("auto") == 4
        assert not [
            rec for rec in caplog.records if rec.levelno >= logging.WARNING
        ]

    def test_explicit_values_delegate_to_resolve_jobs(self, monkeypatch):
        # An explicit count is honored verbatim even on one core (the
        # collection bench deliberately measures pool overhead there).
        monkeypatch.setattr(scheduler_module, "_probe_cpu_count", lambda: 1)
        assert resolve_collect_jobs(3) == 3
        assert resolve_collect_jobs("2") == 2
        with pytest.raises(ValueError):
            resolve_collect_jobs("0")
        with pytest.raises(ValueError):
            resolve_collect_jobs("many")


class TestLockedCache:
    def test_atomic_replace_publishes_complete_file(self, tmp_path):
        target = tmp_path / "artifact.txt"
        with atomic_replace(target) as tmp:
            tmp.write_text("payload")
            assert not target.exists()
        assert target.read_text() == "payload"
        assert list(tmp_path.iterdir()) == [target]

    def test_atomic_replace_cleans_up_on_error(self, tmp_path):
        target = tmp_path / "artifact.txt"
        with pytest.raises(RuntimeError):
            with atomic_replace(target) as tmp:
                tmp.write_text("partial")
                raise RuntimeError("writer died")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_filelock_blocks_second_acquirer(self, tmp_path):
        lock_path = tmp_path / "x.lock"
        held = multiprocessing.Event()
        release = multiprocessing.Event()
        proc = multiprocessing.Process(
            target=_hold_lock_then_report, args=(lock_path, held, release)
        )
        proc.start()
        try:
            assert held.wait(timeout=30)
            with pytest.raises(TimeoutError):
                FileLock(lock_path, timeout=0.2, poll=0.02).acquire()
        finally:
            release.set()
            proc.join(timeout=30)
        # Released now: acquiring must succeed.
        with FileLock(lock_path, timeout=5.0):
            pass

    def test_concurrent_characterization_yields_one_cache_file(self, tmp_path):
        queue = multiprocessing.Queue()
        workers = [
            multiprocessing.Process(
                target=_characterize_worker, args=(tmp_path, queue)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        checksums = [queue.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        npz_files = list(tmp_path.glob("*.npz"))
        assert len(npz_files) == 1, [p.name for p in tmp_path.iterdir()]
        # No torn temp files left behind; both processes saw identical tables.
        assert not list(tmp_path.glob("*.tmp*"))
        assert checksums[0] == checksums[1]
        # A third (in-process) call loads the same cached entry.
        _characterize_worker(tmp_path, queue)
        assert queue.get(timeout=30) == checksums[0]
        assert len(list(tmp_path.glob("*.npz"))) == 1


# ----------------------------------------------------------------------
# experiment-harness determinism across worker counts
# ----------------------------------------------------------------------


def _tiny_spec() -> BenchmarkSpec:
    return BenchmarkSpec(
        name="tiny_par",
        system=build_golden_system(),
        thermal_config=ThermalConfig(rows=16, cols=16, package_margin=8.0),
        reward_config=RewardConfig(lambda_wl=1e-4, use_bump_assignment=False),
    )


def _tiny_budget(**overrides) -> ExperimentBudget:
    defaults = dict(
        rl_epochs=1,
        episodes_per_epoch=2,
        grid_size=12,
        sa_iterations_hotspot=16,
        sa_time_matched=False,
        position_samples=(2, 2),
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentBudget(**defaults)


def _distill(results):
    return [
        (
            res.method,
            float(res.reward).hex(),
            float(res.wirelength).hex(),
            float(res.temperature_c).hex(),
        )
        for res in results
    ]


class TestParallelDeterminism:
    METHODS = ("RLPlanner", "TAP-2.5D(HotSpot)", "TAP-2.5D*(FastThermal)")

    def test_jobs2_bitwise_equals_jobs1_method_arms(self, tmp_path):
        spec = _tiny_spec()
        budget = _tiny_budget()
        sequential = run_all_methods(
            spec, budget, cache_dir=tmp_path, methods=self.METHODS, jobs=1
        )
        pooled = run_all_methods(
            spec, budget, cache_dir=tmp_path, methods=self.METHODS, jobs=2
        )
        assert _distill(pooled) == _distill(sequential)

    def test_time_matched_arm_receives_measured_rl_runtime(self, tmp_path):
        spec = _tiny_spec()
        budget = _tiny_budget(sa_time_matched=True)
        results = run_all_methods(
            spec,
            budget,
            cache_dir=tmp_path,
            methods=("RLPlanner", "TAP-2.5D*(FastThermal)"),
            jobs=2,
        )
        rl, fast_sa = results
        assert rl.method == "RLPlanner"
        assert fast_sa.method == "TAP-2.5D*(FastThermal)"
        assert fast_sa.extra["time_matched"] is True
        assert fast_sa.extra["time_limit_s"] == rl.runtime_s
        assert fast_sa.extra["time_limit_s"] > 0.0

    def test_time_matching_without_rl_arm_warns(self, tmp_path, caplog):
        spec = _tiny_spec()
        budget = _tiny_budget(sa_time_matched=True)
        with _capture_repro_logs(caplog):
            results = run_all_methods(
                spec,
                budget,
                cache_dir=tmp_path,
                methods=("TAP-2.5D*(FastThermal)",),
                jobs=1,
            )
        assert any(
            "WITHOUT a time limit" in rec.getMessage()
            for rec in caplog.records
        )
        (fast_sa,) = results
        assert fast_sa.extra["time_matched"] is False
        assert fast_sa.extra["time_limit_s"] is None

    def test_table2_shards_bitwise_equal_sequential(self, tmp_path):
        config = ThermalConfig(
            rows=24, cols=24, package_margin=8.0, r_convection=0.12
        )
        kwargs = dict(
            n_systems=5,
            seed=11,
            thermal_config=config,
            cache_dir=tmp_path,
            position_samples=(3, 3),
        )
        sequential = run_table2(jobs=1, **kwargs)
        sharded = run_table2(jobs=2, **kwargs)
        assert sharded.predictions == sequential.predictions
        assert sharded.references == sequential.references
        assert sharded.metrics == sequential.metrics
        assert sharded.n_systems == sequential.n_systems

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown methods"):
            run_all_methods(
                _tiny_spec(),
                _tiny_budget(),
                cache_dir=tmp_path,
                methods=("RLPlanner", "NotAMethod"),
            )


class TestBudgetWiring:
    def test_hotspot_reuse_factorization_flag(self, tmp_path):
        spec = _tiny_spec()
        evaluators = build_evaluators(
            spec,
            _tiny_budget(hotspot_reuse_factorization=True),
            cache_dir=tmp_path,
        )
        assert evaluators["solver"].reuse_factorization is True
        default = build_evaluators(spec, _tiny_budget(), cache_dir=tmp_path)
        assert default["solver"].reuse_factorization is False
