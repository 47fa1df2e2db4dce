"""Fault classification, retry/backoff policy, and per-job sweep reports.

The scheduler and collector share one model of "what went wrong":

* **Transient** faults — a worker process died (``BrokenProcessPool``,
  :class:`WorkerCrashError`), the OS hiccuped (``OSError`` and its
  subtree, which since Python 3.10 includes ``TimeoutError``), or a
  straggler blew its wall-clock budget (:class:`JobTimeoutError`).
  These do *not* reproduce from the job's inputs; re-running the job on
  a fresh worker is both safe (every job is a pure function of its
  spec) and bitwise-identical (the run store + seeded RNG streams make
  retries free of determinism risk).
* **Deterministic** faults — the job itself raised (``ValueError``,
  ``KeyError``, an assertion...).  Retrying replays the identical
  computation and fails the identical way, so these are never retried:
  they fail fast, or under ``keep_going`` are *quarantined* with their
  dependency-downstream jobs skipped.

:class:`RetryPolicy` holds the knobs (attempt budget, exponential
backoff with **seeded** jitter — deterministic in ``(seed, job_id,
attempt)`` so reruns of a flaky sweep pause identically), and
:class:`SweepReport` records the per-job outcome every fault-tolerant
entry point can hand back: succeeded / retried-then-succeeded /
cached / quarantined / skipped-downstream.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

__all__ = [
    "JobOutcome",
    "JobTimeoutError",
    "RetryPolicy",
    "SweepReport",
    "WorkerCrashError",
    "WorkerInitError",
]


class WorkerCrashError(RuntimeError):
    """A worker process died without reporting a result (signal/exit).

    Transient by classification: the crash is attributed to the
    worker's *environment* (OOM kill, machine hiccup, injected chaos),
    not to the job's inputs — a fresh worker retries it.
    """


class JobTimeoutError(RuntimeError):
    """A job exceeded its wall-clock budget and its worker was killed.

    Transient: stragglers are assumed to be stuck on environment (lost
    I/O, a hung lock), so the job is retried on a fresh worker.
    """


class WorkerInitError(RuntimeError):
    """A worker pool's initializer raised; carries the real traceback.

    Deliberately *deterministic*: every replacement worker would fail
    the same construction, so retrying converts one clear traceback
    into an opaque ``BrokenProcessPool``.  Raising this promptly is the
    whole point — see ``collector._init_worker``.
    """


#: Exception types whose occurrence does not reproduce from the job's
#: inputs.  ``BrokenExecutor`` covers ``BrokenProcessPool``; ``OSError``
#: covers ``TimeoutError``/``ConnectionError`` (Python >= 3.10) plus
#: the usual transient I/O family.
TRANSIENT_EXCEPTIONS = (
    BrokenExecutor,
    WorkerCrashError,
    JobTimeoutError,
    OSError,
    EOFError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff schedule for transiently failing jobs.

    ``max_attempts`` counts *total* executions (1 = never retry).
    Backoff before attempt ``k+1`` is exponential with seeded jitter::

        base * factor**(k-1), capped at ``backoff_max``,
        scaled by (1 + jitter * u),  u = U[0, 1) from (seed, job, k)

    The jitter draw is a pure function of ``(seed, job_id, attempt)``
    (SHA-256, no global RNG), so two runs of the same flaky sweep back
    off identically — fault handling is as reproducible as the jobs.
    """

    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be >= 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    @staticmethod
    def is_transient(error: BaseException) -> bool:
        """Whether ``error`` is environmental (retry) vs reproducible.

        :class:`WorkerInitError` is checked first: it rides transport
        that looks transient but marks a failure every fresh worker
        would reproduce.
        """
        if isinstance(error, WorkerInitError):
            return False
        return isinstance(error, TRANSIENT_EXCEPTIONS)

    def backoff(self, job_id: str, attempt: int) -> float:
        """Seconds to pause before re-running ``job_id``.

        ``attempt`` is the 1-based attempt that just failed.
        Deterministic in ``(seed, job_id, attempt)``.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )
        token = f"{self.seed}/{job_id}/{attempt}".encode("utf-8")
        digest = hashlib.sha256(token).digest()
        uniform = int.from_bytes(digest[:8], "big") / 2.0**64
        return base * (1.0 + self.jitter * uniform)


# ----------------------------------------------------------------------
# per-job outcome accounting
# ----------------------------------------------------------------------

#: Outcome statuses, in "how did this job end" order.
STATUS_SUCCEEDED = "succeeded"
STATUS_RETRIED = "retried"  # succeeded, but needed > 1 attempt
STATUS_CACHED = "cached"  # result served from the run store
STATUS_QUARANTINED = "quarantined"  # permanently failed, kept aside
STATUS_SKIPPED = "skipped"  # a dependency was quarantined/skipped


@dataclass
class JobOutcome:
    """How one job ended: status, attempts, and the terminal error."""

    job_id: str
    status: str
    attempts: int = 1
    error: str | None = None
    error_type: str | None = None
    blocked_by: str | None = None

    @classmethod
    def failure(cls, job_id: str, status: str, attempts: int, error):
        return cls(
            job_id=job_id,
            status=status,
            attempts=attempts,
            error=repr(error),
            error_type=type(error).__name__,
        )


class SweepReport:
    """Per-job outcomes of one fault-tolerant sweep.

    ``ok`` is True when every job produced a result (freshly, after
    retries, or from the store).  ``run_experiments.py`` exits nonzero
    on ``not ok`` while still publishing every surviving arm.
    """

    def __init__(self):
        self.outcomes: dict = {}

    def record(self, outcome: JobOutcome) -> None:
        self.outcomes[outcome.job_id] = outcome

    def _with_status(self, *statuses) -> list:
        return [
            job_id
            for job_id, outcome in self.outcomes.items()
            if outcome.status in statuses
        ]

    @property
    def succeeded(self) -> list:
        return self._with_status(STATUS_SUCCEEDED, STATUS_RETRIED, STATUS_CACHED)

    @property
    def retried(self) -> list:
        return self._with_status(STATUS_RETRIED)

    @property
    def quarantined(self) -> list:
        return self._with_status(STATUS_QUARANTINED)

    @property
    def skipped(self) -> list:
        return self._with_status(STATUS_SKIPPED)

    @property
    def ok(self) -> bool:
        return not self.quarantined and not self.skipped

    def merge(self, other: "SweepReport") -> None:
        """Fold another sweep's outcomes into this report."""
        self.outcomes.update(other.outcomes)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "jobs": {
                job_id: {
                    "status": outcome.status,
                    "attempts": outcome.attempts,
                    "error": outcome.error,
                    "error_type": outcome.error_type,
                    "blocked_by": outcome.blocked_by,
                }
                for job_id, outcome in self.outcomes.items()
            },
        }

    def summary(self) -> str:
        """One-paragraph human summary for logs and CLI output."""
        lines = [
            f"sweep report: {len(self.succeeded)} succeeded "
            f"({len(self.retried)} after retries), "
            f"{len(self.quarantined)} quarantined, "
            f"{len(self.skipped)} skipped downstream"
        ]
        for job_id in self.quarantined:
            outcome = self.outcomes[job_id]
            lines.append(
                f"  quarantined {job_id}: {outcome.error} "
                f"(after {outcome.attempts} attempt(s))"
            )
        for job_id in self.skipped:
            outcome = self.outcomes[job_id]
            lines.append(
                f"  skipped {job_id}: depends on {outcome.blocked_by}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SweepReport(succeeded={len(self.succeeded)}, "
            f"quarantined={len(self.quarantined)}, "
            f"skipped={len(self.skipped)})"
        )
