"""Fault model + fault-tolerant scheduler: classification, backoff,
sweep reports, retries, stragglers, and ``keep_going`` quarantine.

Covers the PR-7 tentpole guarantees on the scheduler side:

* transient vs deterministic error classification (``RetryPolicy``);
* seeded, deterministic backoff jitter (reruns pause identically);
* retry of transiently failing jobs on fresh workers — including a
  worker SIGKILL'd mid-job — with the final result identical to an
  undisturbed run;
* deterministic failures never retry (attempt counters prove it);
* ``job_timeout`` straggler kill + retry;
* ``keep_going``: permanent failures are quarantined, only their
  dependency-downstream jobs are skipped, independent jobs complete,
  and the ``SweepReport`` carries the triage.
"""

import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.parallel import (
    JobFailedError,
    JobOutcome,
    JobSpec,
    JobTimeoutError,
    RetryPolicy,
    SweepReport,
    WorkerCrashError,
    WorkerInitError,
    run_jobs,
)

# ----------------------------------------------------------------------
# top-level job functions (picklable for worker processes)
# ----------------------------------------------------------------------


def _square(x):
    return x * x


def _boom():
    raise ValueError("deterministic boom")


def _flaky(path, fail_times, x):
    """Raise a transient OSError the first ``fail_times`` calls."""
    attempt = _bump(path)
    if attempt <= fail_times:
        raise OSError(f"transient hiccup #{attempt}")
    return x * x


def _crash_once(path, x):
    """SIGKILL our own process on the first call; succeed after."""
    if _bump(path) == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _counted_boom(path):
    _bump(path)
    raise ValueError("deterministic boom")


def _sleep_once_then_square(path, x, sleep_s):
    """Hang past any timeout on the first call; fast on the retry."""
    if _bump(path) == 1:
        time.sleep(sleep_s)
    return x * x


def _bump(path) -> int:
    """File-based attempt counter, atomic enough for one job's retries."""
    count = int(path.read_text()) + 1 if path.exists() else 1
    path.write_text(str(count))
    return count


def _fast_policy(**overrides) -> RetryPolicy:
    defaults = dict(max_attempts=3, backoff_base=0.0, jitter=0.0)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


# ----------------------------------------------------------------------
# classification + backoff
# ----------------------------------------------------------------------


class TestClassification:
    @pytest.mark.parametrize(
        "error",
        [
            OSError("io"),
            TimeoutError("slow"),  # OSError subclass on 3.10+
            ConnectionResetError("gone"),
            EOFError(),
            BrokenProcessPool("pool died"),
            WorkerCrashError("sigkill"),
            JobTimeoutError("straggler"),
        ],
    )
    def test_transient(self, error):
        assert RetryPolicy.is_transient(error)

    @pytest.mark.parametrize(
        "error",
        [
            ValueError("bad input"),
            KeyError("missing"),
            RuntimeError("bug"),
            ZeroDivisionError(),
            # Deterministic by design: every fresh worker would fail
            # construction identically.
            WorkerInitError("init raised"),
        ],
    )
    def test_deterministic(self, error):
        assert not RetryPolicy.is_transient(error)


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        a = RetryPolicy(seed=7).backoff("table1/arm", 2)
        b = RetryPolicy(seed=7).backoff("table1/arm", 2)
        assert a == b

    def test_backoff_varies_with_seed_job_and_attempt(self):
        base = RetryPolicy(seed=0).backoff("job", 1)
        assert RetryPolicy(seed=1).backoff("job", 1) != base
        assert RetryPolicy(seed=0).backoff("job2", 1) != base
        assert RetryPolicy(seed=0).backoff("job", 2) != base

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_base=1.0, backoff_factor=2.0, backoff_max=3.0, jitter=0.0
        )
        assert policy.backoff("j", 1) == 1.0
        assert policy.backoff("j", 2) == 2.0
        assert policy.backoff("j", 3) == 3.0  # capped, not 4.0
        assert policy.backoff("j", 9) == 3.0

    def test_jitter_bounds(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=0.5)
        for attempt in range(1, 6):
            delay = policy.backoff("j", attempt)
            base = min(
                policy.backoff_base * policy.backoff_factor ** (attempt - 1),
                policy.backoff_max,
            )
            assert base <= delay <= base * 1.5

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().backoff("j", 0)


# ----------------------------------------------------------------------
# sweep report
# ----------------------------------------------------------------------


class TestSweepReport:
    def test_triage_buckets(self):
        report = SweepReport()
        report.record(JobOutcome("a", "succeeded"))
        report.record(JobOutcome("b", "retried", attempts=2))
        report.record(JobOutcome("c", "cached"))
        report.record(
            JobOutcome.failure("d", "quarantined", 3, OSError("io"))
        )
        report.record(JobOutcome("e", "skipped", attempts=0, blocked_by="d"))
        assert report.succeeded == ["a", "b", "c"]
        assert report.retried == ["b"]
        assert report.quarantined == ["d"]
        assert report.skipped == ["e"]
        assert not report.ok

    def test_ok_when_everything_succeeded(self):
        report = SweepReport()
        report.record(JobOutcome("a", "succeeded"))
        report.record(JobOutcome("b", "retried", attempts=2))
        assert report.ok

    def test_merge_and_to_dict(self):
        left, right = SweepReport(), SweepReport()
        left.record(JobOutcome("a", "succeeded"))
        right.record(JobOutcome.failure("b", "quarantined", 1, ValueError("x")))
        left.merge(right)
        document = left.to_dict()
        assert document["ok"] is False
        assert document["jobs"]["b"]["error_type"] == "ValueError"
        assert document["jobs"]["a"]["status"] == "succeeded"

    def test_summary_names_failures(self):
        report = SweepReport()
        report.record(
            JobOutcome.failure("bad/arm", "quarantined", 2, OSError("io"))
        )
        report.record(
            JobOutcome("down/arm", "skipped", attempts=0, blocked_by="bad/arm")
        )
        text = report.summary()
        assert "bad/arm" in text
        assert "down/arm" in text
        assert "depends on bad/arm" in text


# ----------------------------------------------------------------------
# scheduler retries (sequential and supervised)
# ----------------------------------------------------------------------


class TestTransientRetry:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failure_retries_to_success(self, tmp_path, jobs):
        report = SweepReport()
        outcome = run_jobs(
            [
                JobSpec(
                    "flaky",
                    _flaky,
                    dict(path=tmp_path / "n", fail_times=2, x=3),
                ),
                JobSpec("ok", _square, dict(x=2)),
            ],
            jobs=jobs,
            policy=_fast_policy(),
            report=report,
        )
        assert outcome == {"flaky": 9, "ok": 4}
        assert report.retried == ["flaky"]
        assert report.outcomes["flaky"].attempts == 3
        assert report.ok

    def test_sigkilled_worker_is_retried_on_a_fresh_process(self, tmp_path):
        # The chaos-adjacent core guarantee: a worker dying without a
        # result (machine death, OOM kill) is attributed to exactly one
        # job and retried — and the final mapping is what an
        # undisturbed run produces.
        report = SweepReport()
        outcome = run_jobs(
            [
                JobSpec("victim", _crash_once, dict(path=tmp_path / "n", x=5)),
                JobSpec("bystander", _square, dict(x=3)),
            ],
            jobs=2,
            policy=_fast_policy(),
            report=report,
        )
        assert outcome == {"victim": 25, "bystander": 9}
        assert report.retried == ["victim"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_budget_exhaustion_fails(self, tmp_path, jobs):
        specs = [
            JobSpec(
                "flaky",
                _flaky,
                dict(path=tmp_path / "n", fail_times=99, x=3),
            )
        ]
        expected = OSError if jobs == 1 else JobFailedError
        with pytest.raises(expected):
            run_jobs(specs, jobs=jobs, policy=_fast_policy(max_attempts=2))
        assert int((tmp_path / "n").read_text()) == 2  # both attempts ran

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deterministic_failure_never_retries(self, tmp_path, jobs):
        specs = [JobSpec("bad", _counted_boom, dict(path=tmp_path / "n"))]
        expected = ValueError if jobs == 1 else JobFailedError
        with pytest.raises(expected):
            run_jobs(specs, jobs=jobs, policy=_fast_policy())
        assert int((tmp_path / "n").read_text()) == 1


class TestJobTimeout:
    def test_straggler_is_killed_and_retried(self, tmp_path):
        report = SweepReport()
        start = time.monotonic()
        outcome = run_jobs(
            [
                JobSpec(
                    "straggler",
                    _sleep_once_then_square,
                    dict(path=tmp_path / "n", x=4, sleep_s=60.0),
                )
            ],
            jobs=2,
            policy=_fast_policy(),
            job_timeout=1.0,
            report=report,
        )
        elapsed = time.monotonic() - start
        assert outcome == {"straggler": 16}
        assert report.retried == ["straggler"]
        assert elapsed < 30.0, "straggler was not preempted"

    def test_timeout_exhaustion_quarantines_under_keep_going(self, tmp_path):
        report = SweepReport()
        outcome = run_jobs(
            [
                JobSpec(
                    "hung",
                    _sleep_once_then_square,
                    dict(path=tmp_path / "n", x=4, sleep_s=60.0),
                ),
                JobSpec("ok", _square, dict(x=2)),
            ],
            jobs=2,
            policy=_fast_policy(max_attempts=1),
            job_timeout=1.0,
            keep_going=True,
            report=report,
        )
        assert outcome == {"ok": 4}
        assert report.quarantined == ["hung"]
        assert report.outcomes["hung"].error_type == "JobTimeoutError"


class TestKeepGoing:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_quarantine_skips_only_downstream(self, tmp_path, jobs):
        report = SweepReport()
        specs = [
            JobSpec("bad", _counted_boom, dict(path=tmp_path / "n")),
            JobSpec("child", _square, dict(x=3), needs=("bad",)),
            JobSpec("grandchild", _square, dict(x=4), needs=("child",)),
            JobSpec("independent", _square, dict(x=5)),
        ]
        outcome = run_jobs(
            specs,
            jobs=jobs,
            policy=_fast_policy(),
            keep_going=True,
            report=report,
        )
        assert outcome == {"independent": 25}
        assert report.quarantined == ["bad"]
        assert sorted(report.skipped) == ["child", "grandchild"]
        assert report.outcomes["child"].blocked_by == "bad"
        assert report.outcomes["grandchild"].blocked_by == "child"
        assert not report.ok

    def test_default_fail_fast_contract_is_unchanged(self):
        # Without keep_going the historical contract holds: jobs=1
        # re-raises the original exception; pooled raises JobFailedError.
        with pytest.raises(JobFailedError, match="bad"):
            run_jobs(
                [
                    JobSpec("ok", _square, dict(x=2)),
                    JobSpec("bad", _boom),
                ],
                jobs=2,
                policy=RetryPolicy(max_attempts=1),
            )
