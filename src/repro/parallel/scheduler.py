"""Dependency-aware job scheduler over supervised worker processes.

Design constraints, in order:

1. **Bit-for-bit sequential fallback.**  ``run_jobs(specs, jobs=1)``
   executes every job in submission order, in process, with no pool and
   no pickling — exactly the code path the pre-scheduler harness ran.
   The golden-experiments regression pins this.
2. **Determinism at any worker count.**  Jobs must be pure functions of
   their spec (every experiment job carries its own seed), so results
   cannot depend on scheduling order; only wall clock does.  The result
   mapping is returned in submission order regardless of completion
   order.
3. **Explicit dependencies.**  A job may name earlier jobs in
   ``needs``; it is not dispatched until they finish.  Cross-job data
   flows through ``inject``, which runs **in the parent** right before
   dispatch and may rewrite the job's kwargs from the dependencies'
   results (the wall-clock-matched SA arm receives the measured RL
   runtime this way).  Requiring ``needs`` to point at earlier
   submissions keeps the graph acyclic by construction and makes the
   sequential fallback trivially dependency-correct.
4. **Fault tolerance.**  Each job runs in its *own supervised worker
   process* (``multiprocessing.Process`` + pipe), which is what makes
   per-job fault attribution possible: a crash kills exactly one job's
   worker, a straggler past its ``job_timeout`` is killed without
   collateral damage, and both are retried on a fresh worker under the
   :class:`~repro.parallel.faults.RetryPolicy` (exponential backoff,
   seeded jitter).  Deterministic failures are never retried; with
   ``keep_going=True`` they are *quarantined* — their dependency-
   downstream jobs are skipped and every independent job still runs —
   and the caller reads the triage from a
   :class:`~repro.parallel.faults.SweepReport`.

Job functions must be importable top-level callables and their kwargs
picklable — the usual :mod:`multiprocessing` contract.  A permanently
failed job raises :class:`JobFailedError` in the parent (without
waiting for unrelated in-flight siblings) unless ``keep_going`` is set.

**Run-store integration.**  A spec may carry a ``store_key`` (a
:func:`repro.store.store_key` digest).  When ``run_jobs`` is given a
:class:`~repro.store.RunStore`, keyed jobs whose result is already
published are *never scheduled*: the stored result enters the outcome
mapping (and feeds dependents' ``inject`` hooks) directly, which is
what makes re-running a completed sweep with ``--resume`` execute zero
method-arm jobs.  Keyed jobs that do execute have their result
published to the store on completion (in the parent, atomically).
With ``store=None`` the scheduler behaves exactly as before.  The
store also makes retries cheap: a retried job resumes from its own
in-flight checkpoint slot rather than recomputing from scratch.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import pickle
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait

from repro.parallel import chaos
from repro.parallel.faults import (
    JobOutcome,
    JobTimeoutError,
    RetryPolicy,
    SweepReport,
    WorkerCrashError,
)
from repro.utils import get_logger

__all__ = [
    "JobFailedError",
    "JobSpec",
    "RemoteTraceback",
    "resolve_collect_jobs",
    "resolve_jobs",
    "run_jobs",
]

_logger = get_logger("parallel.scheduler")

#: Grace period between SIGTERM and SIGKILL when stopping a worker.
_TERMINATE_GRACE_S = 5.0

#: Supervisor poll ceiling: an upper bound on how long the parent waits
#: on worker pipes before re-checking deadlines and retry timers.
_POLL_S = 0.5


class JobFailedError(RuntimeError):
    """A job raised in a worker; carries the failing job id."""

    def __init__(self, job_id: str, cause: BaseException):
        super().__init__(f"job {job_id!r} failed: {cause!r}")
        self.job_id = job_id
        self.cause = cause


class RemoteTraceback(RuntimeError):
    """A worker raised an exception whose object could not be pickled.

    Carries the remote type name and formatted traceback so the
    failure is still debuggable; classified deterministic (retrying
    re-raises the same unpicklable error).
    """

    def __init__(self, type_name: str, message: str, trace: str):
        super().__init__(f"{type_name}: {message}\n{trace}")
        self.type_name = type_name


@dataclass
class JobSpec:
    """One schedulable unit of work.

    Attributes
    ----------
    job_id:
        Unique name; dependency edges and the result mapping use it.
    fn:
        Importable top-level callable (workers re-import it by
        qualified name when pickled).
    kwargs:
        Keyword arguments for ``fn``; must be picklable for ``jobs>1``.
    needs:
        Ids of jobs that must complete first.  They must refer to
        *earlier* submissions (forward edges only), which keeps the
        graph a DAG and the ``jobs=1`` fallback dependency-correct
        without a topological sort.
    inject:
        Optional ``inject(kwargs, done) -> kwargs`` hook run in the
        parent immediately before dispatch, where ``done`` maps
        completed job ids to their results.  This is the only
        cross-job data channel; use :func:`functools.partial` to bind
        which dependency feeds which keyword.
    store_key:
        Optional content-addressed key in the run store.  When
        ``run_jobs`` receives a store, a published result under this
        key short-circuits the job entirely, and a freshly computed
        result is published under it.  ``None`` (default) opts the job
        out of the store.
    """

    job_id: str
    fn: object
    kwargs: dict = field(default_factory=dict)
    needs: tuple = ()
    inject: object = None
    store_key: str | None = None

    def resolved_kwargs(self, done: dict) -> dict:
        kwargs = dict(self.kwargs)
        if self.inject is not None:
            kwargs = self.inject(kwargs, done)
        return kwargs


def _validate(specs: list) -> None:
    seen = set()
    for spec in specs:
        if spec.job_id in seen:
            raise ValueError(f"duplicate job id {spec.job_id!r}")
        for dep in spec.needs:
            if dep not in seen:
                raise ValueError(
                    f"job {spec.job_id!r} needs {dep!r}, which is not an "
                    "earlier submission (forward dependency edges only)"
                )
        seen.add(spec.job_id)


def _probe_cpu_count() -> int:
    """CPUs available to this process, probed defensively.

    Every probe in the chain is allowed to be missing, raise, or answer
    ``None`` (``os.cpu_count`` is documented to return ``None`` when it
    cannot determine the count, and containers/exotic hosts do hit
    that): a dead probe falls through to the next one instead of
    propagating ``None``/``TypeError`` into a worker count, and the
    final answer is always clamped to at least 1.
    """
    probes = (
        # Python >= 3.13: cgroup/affinity-aware by design.
        getattr(os, "process_cpu_count", None),
        # Linux: scheduling affinity of this process.
        lambda: len(os.sched_getaffinity(0)),
        # Portable last resort.
        os.cpu_count,
    )
    for probe in probes:
        if probe is None:
            continue
        try:
            count = probe()
        except (AttributeError, OSError, ValueError):
            continue
        if count is not None and int(count) >= 1:
            return int(count)
    return 1


def resolve_jobs(value) -> int:
    """Parse a ``--jobs`` value: a positive integer or ``"auto"``.

    ``"auto"`` resolves to the CPUs actually available to this process
    (``os.process_cpu_count`` where it exists — Python >= 3.13 — then
    the scheduling affinity, then ``os.cpu_count``), never less than 1
    even when every probe is unavailable or answers ``None``.
    """
    if isinstance(value, int):
        jobs = value
    else:
        text = str(value).strip().lower()
        if text == "auto":
            return _probe_cpu_count()
        jobs = int(text)  # ValueError on garbage, as argparse expects
    if jobs < 1:
        raise ValueError("jobs must be >= 1 (or 'auto')")
    return jobs


def resolve_collect_jobs(value) -> int:
    """Parse a ``--collect-jobs`` value: like :func:`resolve_jobs`, but
    ``"auto"`` on a single-CPU host resolves to **in-process**
    collection (1) with a warning instead of silently standing up a
    one-worker pool — on one core a pool buys no parallelism and pays
    per-epoch weight broadcast and IPC for every slice (the collection
    bench measures it well below 1x).  Results are unaffected either
    way: ``collect_jobs`` is bitwise-non-semantic by construction.

    An *explicit* worker count is honored verbatim, single core or not
    (the bench deliberately measures pool overhead on small hosts).
    """
    if not isinstance(value, int) and str(value).strip().lower() == "auto":
        jobs = _probe_cpu_count()
        if jobs == 1:
            _logger.warning(
                "--collect-jobs auto: only 1 CPU is available to this "
                "process, so a worker pool would be pure IPC overhead; "
                "collecting episodes in-process (results are identical "
                "at any collect_jobs)"
            )
        return jobs
    return resolve_jobs(value)


def run_jobs(
    specs,
    jobs: int = 1,
    store=None,
    *,
    policy: RetryPolicy | None = None,
    job_timeout: float | None = None,
    keep_going: bool = False,
    report: SweepReport | None = None,
) -> dict:
    """Execute ``specs``; return ``{job_id: result}`` in submission order.

    ``jobs=1`` runs in process and in submission order — the bit-exact
    sequential path.  ``jobs>1`` dispatches every dependency-free job to
    its own supervised worker process (at most ``jobs`` concurrent) and
    releases dependents as their ``needs`` complete.

    ``store`` (a :class:`repro.store.RunStore`) makes keyed jobs
    resumable: published results are returned without executing the
    job, and newly computed results are published.

    Fault tolerance:

    * ``policy`` (default :class:`RetryPolicy`) retries *transiently*
      failed jobs — dead workers, ``OSError``/timeouts — on a fresh
      worker with exponential, seeded-jitter backoff.  Deterministic
      exceptions reproduce on retry and are never retried.
    * ``job_timeout`` kills and retries any single job running longer
      than this many seconds (``jobs>1`` only: an in-process job cannot
      be preempted).
    * ``keep_going=False`` (default) raises :class:`JobFailedError` on
      the first permanent failure, without waiting for unrelated
      in-flight siblings.  ``keep_going=True`` *quarantines* permanent
      failures, skips only their dependency-downstream jobs, completes
      the rest of the graph, and returns results for every surviving
      job (quarantined/skipped ids are absent from the mapping).
    * ``report`` (a :class:`SweepReport`) receives the per-job outcome
      triage either way.
    """
    specs = list(specs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    _validate(specs)
    policy = policy if policy is not None else RetryPolicy()
    report = report if report is not None else SweepReport()
    if not specs:
        return {}
    done: dict = {}
    pending = specs
    if store is not None:
        pending = []
        for spec in specs:
            if spec.store_key is not None:
                hit, value = store.fetch(spec.store_key)
                if hit:
                    _logger.info("store hit, skipping %s", spec.job_id)
                    done[spec.job_id] = value
                    report.record(JobOutcome(spec.job_id, "cached"))
                    continue
            pending.append(spec)
    if jobs == 1:
        _run_in_process(pending, done, store, policy, keep_going, report)
    else:
        _run_supervised(
            pending, jobs, done, store, policy, job_timeout, keep_going, report
        )
    return {
        spec.job_id: done[spec.job_id]
        for spec in specs
        if spec.job_id in done
    }


def _publish(store, spec: JobSpec, result) -> None:
    if store is not None and spec.store_key is not None:
        store.put(spec.store_key, result)


def _blocking_dep(spec: JobSpec, report: SweepReport) -> str | None:
    """The first dependency of ``spec`` that can never complete."""
    for dep in spec.needs:
        outcome = report.outcomes.get(dep)
        if outcome is not None and outcome.status in ("quarantined", "skipped"):
            return dep
    return None


def _record_skip(spec: JobSpec, blocked_by: str, report: SweepReport) -> None:
    _logger.warning(
        "skipping %s: dependency %s was quarantined", spec.job_id, blocked_by
    )
    report.record(
        JobOutcome(spec.job_id, "skipped", attempts=0, blocked_by=blocked_by)
    )


def _retry_delay_or_quarantine(
    spec: JobSpec,
    attempt: int,
    error: BaseException,
    policy: RetryPolicy,
    keep_going: bool,
    report: SweepReport,
) -> float | None:
    """The fault rules of both executors for one failed attempt.

    Returns the backoff before the next attempt when ``error`` is
    transient and the policy grants one.  Otherwise the failure is
    permanent and ``None`` comes back: under ``keep_going`` the job is
    quarantined into ``report``, and without it the caller raises (the
    raw error in process, :class:`JobFailedError` from a worker).
    """
    if policy.is_transient(error) and attempt < policy.max_attempts:
        delay = policy.backoff(spec.job_id, attempt)
        _logger.warning(
            "%s failed transiently (%r), attempt %d/%d; retrying in %.2fs",
            spec.job_id,
            error,
            attempt,
            policy.max_attempts,
            delay,
        )
        return delay
    if keep_going:
        _logger.error(
            "quarantining %s after %d attempt(s): %r",
            spec.job_id,
            attempt,
            error,
        )
        report.record(
            JobOutcome.failure(spec.job_id, "quarantined", attempt, error)
        )
    return None


def _record_success(
    spec: JobSpec, attempt: int, result, done: dict, store, report
) -> None:
    done[spec.job_id] = result
    _publish(store, spec, result)
    report.record(
        JobOutcome(
            spec.job_id,
            "succeeded" if attempt == 1 else "retried",
            attempts=attempt,
        )
    )


def _run_in_process(
    specs: list,
    done: dict,
    store,
    policy: RetryPolicy,
    keep_going: bool,
    report: SweepReport,
) -> None:
    """In-process execution, bit-for-bit the pre-scheduler harness.

    Fault handling layers *around* the job call, never inside it: with
    no failures the executed code path is byte-identical to the
    original loop.  Transient failures retry after the policy backoff;
    deterministic failures raise directly (the historical contract) or
    quarantine under ``keep_going``.  Timeouts do not apply — an
    in-process job cannot be preempted.
    """
    for spec in specs:
        blocked_by = _blocking_dep(spec, report)
        if blocked_by is not None:
            _record_skip(spec, blocked_by, report)
            continue
        attempt = 1
        while True:
            try:
                chaos.maybe_fail("scheduler.job", spec.job_id)
                result = spec.fn(**spec.resolved_kwargs(done))
            except Exception as error:
                delay = _retry_delay_or_quarantine(
                    spec, attempt, error, policy, keep_going, report
                )
                if delay is None:
                    if keep_going:
                        break
                    raise
                time.sleep(delay)
                attempt += 1
            else:
                _record_success(spec, attempt, result, done, store, report)
                break


# ----------------------------------------------------------------------
# supervised workers (jobs > 1)
# ----------------------------------------------------------------------


def _supervised_main(conn, fn, kwargs, job_id: str) -> None:
    """Worker entry: run one job, report ``("ok"|"error", payload)``.

    The envelope travels over a dedicated pipe.  An exception whose
    *object* fails to pickle degrades to a :class:`RemoteTraceback`
    envelope (type name + formatted traceback) instead of poisoning the
    channel — the parent still gets a classifiable, debuggable error.
    """
    try:
        chaos.maybe_fail("scheduler.job", job_id)
        payload = ("ok", fn(**kwargs))
    except BaseException as error:  # noqa: BLE001 - supervisor boundary
        payload = ("error", error)
    try:
        conn.send(payload)
    except Exception:
        # Unpicklable result/exception: nothing was written (pickling
        # happens before any bytes hit the pipe), so the channel is
        # still clean for the fallback envelope.
        if payload[0] == "ok":
            error = TypeError(
                f"job {job_id!r} returned an unpicklable result"
            )
            trace = ""
        else:
            error = payload[1]
            trace = "".join(
                traceback.format_exception(
                    type(error), error, error.__traceback__
                )
            )
        conn.send(
            ("error", RemoteTraceback(type(error).__name__, str(error), trace))
        )
    finally:
        conn.close()


@dataclass
class _Running:
    """Supervisor-side handle of one in-flight job attempt."""

    spec: JobSpec
    attempt: int
    process: multiprocessing.Process
    conn: object
    started: float

    def deadline(self, job_timeout) -> float | None:
        return None if job_timeout is None else self.started + job_timeout


def _start_worker(spec: JobSpec, attempt: int, done: dict) -> _Running:
    parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(
        target=_supervised_main,
        args=(child_conn, spec.fn, spec.resolved_kwargs(done), spec.job_id),
        name=f"job-{spec.job_id}",
    )
    process.start()
    child_conn.close()  # parent keeps only its end; EOF tracks the child
    _logger.debug(
        "dispatched %s (attempt %d, pid %d)", spec.job_id, attempt, process.pid
    )
    return _Running(spec, attempt, process, parent_conn, time.monotonic())


def _stop_worker(rec: _Running) -> None:
    """SIGTERM, then SIGKILL, then reap one worker process."""
    process = rec.process
    if process.is_alive():
        process.terminate()
        process.join(_TERMINATE_GRACE_S)
        if process.is_alive():  # pragma: no cover - SIGTERM blocked
            process.kill()
            process.join(_TERMINATE_GRACE_S)
    rec.conn.close()


def _drain_in_background(running: list) -> None:
    """Let in-flight siblings finish after a fail-fast raise.

    Their worker-side publishes salvage real work (method arms publish
    to the run store from the worker), but nobody will read their
    pipes — and a result larger than the pipe buffer would block the
    child's ``send`` forever, deadlocking interpreter exit on the
    ``multiprocessing`` join.  A daemon thread drains and reaps them
    without holding up the failure.
    """

    def drain(rec: _Running) -> None:
        try:
            rec.conn.recv()
        except (EOFError, OSError):
            pass
        finally:
            rec.conn.close()
        rec.process.join()

    for rec in running:
        threading.Thread(target=drain, args=(rec,), daemon=True).start()


def _receive(rec: _Running):
    """Collect a finished worker's envelope: ``("ok"|"error", payload)``.

    A worker that died without sending (crash, SIGKILL, interpreter
    abort) yields a transient :class:`WorkerCrashError` carrying its
    exit code.
    """
    message = None
    try:
        if rec.conn.poll():
            message = rec.conn.recv()
    except (EOFError, OSError, pickle.UnpicklingError) as error:
        message = ("error", WorkerCrashError(f"result channel broke: {error!r}"))
    rec.process.join()
    rec.conn.close()
    if message is None:
        code = rec.process.exitcode
        message = (
            "error",
            WorkerCrashError(
                f"worker for {rec.spec.job_id!r} died without a result "
                f"(exitcode {code})"
            ),
        )
    return message


def _run_supervised(
    specs: list,
    jobs: int,
    done: dict,
    store,
    policy: RetryPolicy,
    job_timeout: float | None,
    keep_going: bool,
    report: SweepReport,
) -> None:
    """Supervise up to ``jobs`` concurrent single-job worker processes.

    Per-job fault attribution is the reason this is not a shared pool:
    a crash or straggler kill touches exactly one job, so siblings keep
    their workers and their wall clock.  Retries always get a fresh
    process (a poisoned interpreter state cannot leak into the retry).
    """
    waiting = list(specs)
    running: list = []
    retries: list = []  # heap of (ready_time, tiebreak, spec, next_attempt)
    tiebreak = itertools.count()

    def fail(spec: JobSpec, attempt: int, error: BaseException) -> None:
        delay = _retry_delay_or_quarantine(
            spec, attempt, error, policy, keep_going, report
        )
        if delay is not None:
            heapq.heappush(
                retries,
                (time.monotonic() + delay, next(tiebreak), spec, attempt + 1),
            )
        elif not keep_going:
            raise JobFailedError(spec.job_id, error)

    def dispatch_ready() -> None:
        now = time.monotonic()
        while retries and len(running) < jobs and retries[0][0] <= now:
            _, _, spec, attempt = heapq.heappop(retries)
            running.append(_start_worker(spec, attempt, done))
        still_waiting = []
        for spec in waiting:
            blocked_by = _blocking_dep(spec, report)
            if blocked_by is not None:
                _record_skip(spec, blocked_by, report)
            elif (
                all(dep in done for dep in spec.needs)
                and len(running) < jobs
            ):
                running.append(_start_worker(spec, 1, done))
            else:
                still_waiting.append(spec)
        waiting[:] = still_waiting

    def poll_timeout() -> float:
        """How long the supervisor may sleep before the next event."""
        now = time.monotonic()
        horizon = _POLL_S
        if retries:
            horizon = min(horizon, max(retries[0][0] - now, 0.0))
        if job_timeout is not None:
            for rec in running:
                horizon = min(
                    horizon, max(rec.deadline(job_timeout) - now, 0.0)
                )
        return horizon

    try:
        dispatch_ready()
        while running or retries or waiting:
            if not running:
                if retries:
                    # Nothing in flight; sleep until the earliest retry.
                    time.sleep(max(retries[0][0] - time.monotonic(), 0.0))
                    dispatch_ready()
                    continue
                if waiting:
                    # Only reachable if every remaining job is blocked on
                    # quarantined deps but escaped _blocking_dep — a bug
                    # tripwire, as _validate guarantees forward edges.
                    dispatch_ready()
                    if not running and not retries and waiting:
                        raise RuntimeError(
                            f"{len(waiting)} jobs never became ready: "
                            f"{[spec.job_id for spec in waiting]}"
                        )
                    continue
            sentinels = {rec.process.sentinel: rec for rec in running}
            channels = {rec.conn: rec for rec in running}
            ready = wait(
                list(channels) + list(sentinels), timeout=poll_timeout()
            )
            finished = {
                id(rec): rec
                for handle in ready
                for rec in (channels.get(handle) or sentinels.get(handle),)
            }
            now = time.monotonic()
            for rec in list(running):
                if id(rec) in finished:
                    running.remove(rec)
                    kind, payload = _receive(rec)
                    if kind == "ok":
                        _record_success(
                            rec.spec, rec.attempt, payload, done, store, report
                        )
                    else:
                        fail(rec.spec, rec.attempt, payload)
                elif (
                    job_timeout is not None
                    and now >= rec.deadline(job_timeout)
                ):
                    # Straggler: past its wall-clock budget with no
                    # result.  Kill the worker (only this job's) and
                    # route through the normal transient-failure path.
                    running.remove(rec)
                    _logger.warning(
                        "%s exceeded job_timeout=%.1fs; killing worker "
                        "pid %d",
                        rec.spec.job_id,
                        job_timeout,
                        rec.process.pid,
                    )
                    _stop_worker(rec)
                    fail(
                        rec.spec,
                        rec.attempt,
                        JobTimeoutError(
                            f"{rec.spec.job_id!r} exceeded "
                            f"{job_timeout:.1f}s wall clock"
                        ),
                    )
            dispatch_ready()
    except BaseException as error:
        if isinstance(error, KeyboardInterrupt):
            # Ctrl-C means *stop now*: kill in-flight workers instead of
            # letting them grind on behind a dead sweep.  Every store
            # write is atomic, so a killed job simply never published
            # and restarts from its last checkpoint under --resume.
            for rec in running:
                _stop_worker(rec)
        else:
            # Fail fast but salvage: surface the failure immediately
            # while in-flight siblings drain in the background (their
            # worker-side publishes are real work; see the helper).
            _drain_in_background(running)
        raise
