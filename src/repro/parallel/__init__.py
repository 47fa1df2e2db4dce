"""Process-level sharding: experiment arms and episode collection.

The experiment harness produces tens of independent, CPU-bound units of
work — one (benchmark x method) arm per Table I/III cell, one dataset
chunk per Table II shard — that PRs 1-3 made fast *inside* one process
but still ran strictly sequentially on one core.  This package spreads
them across process pools:

* :mod:`repro.parallel.scheduler` — picklable job specs, dependency
  edges resolved in the parent (e.g. the wall-clock-matched SA arm
  receiving the measured RL runtime), ordered result collection, and a
  ``jobs=1`` in-process fallback that is bit-for-bit the sequential
  path.
* :mod:`repro.parallel.collector` — PPO episode collection *inside*
  one RL arm.  One :class:`EpisodeCollector` cuts each epoch into
  wave-aligned slices of per-episode RNG streams and drives them down
  one degrade ladder of slice executors — leased remote workers, a
  local process pool, in-process collection — merging in index order.
  A failed round sends its missing slices one rung down in the same
  call; ``max_failures`` failed rounds degrade a rung until a bounded
  re-probe.  Every rung runs the same lockstep loop on the same
  broadcast weight bytes, so results are bitwise identical to
  in-process collection at any worker count, under any fault.
* :mod:`repro.parallel.cache` — file locking and atomic-rename writes
  so workers share one on-disk artifact cache (the thermal
  characterization tables) instead of racing to recompute it.
* :mod:`repro.parallel.faults` — the shared fault model: transient vs
  deterministic classification, :class:`RetryPolicy` (exponential
  backoff with seeded jitter), and the per-job :class:`SweepReport`.
* :mod:`repro.parallel.chaos` — deterministic, seeded fault injection
  (crash/hang/raise at named points, plus network faults at
  ``transport.*`` points, via ``RLPLANNER_CHAOS``) so every failure
  path above is CI-testable.
* :mod:`repro.parallel.transport` — length-prefixed, checksummed TCP
  frames carrying the existing payload schema between machines.
* :mod:`repro.parallel.remote` — the ladder's leased-TCP rung: a
  coordinator with heartbeats, fencing and re-dispatch, and the remote
  worker loop.
"""

from repro.parallel.cache import FileLock, atomic_replace
from repro.parallel.faults import (
    JobOutcome,
    JobTimeoutError,
    RetryPolicy,
    SweepReport,
    WorkerCrashError,
    WorkerInitError,
)
from repro.parallel.scheduler import (
    JobFailedError,
    JobSpec,
    RemoteTraceback,
    resolve_collect_jobs,
    resolve_jobs,
    run_jobs,
)

__all__ = [
    "EpisodeCollector",
    "FileLock",
    "JobFailedError",
    "JobOutcome",
    "JobSpec",
    "JobTimeoutError",
    "RemoteTraceback",
    "RetryPolicy",
    "SweepReport",
    "WorkerCoordinator",
    "WorkerCrashError",
    "WorkerInitError",
    "atomic_replace",
    "collect_slice",
    "partition_episodes",
    "resolve_collect_jobs",
    "resolve_jobs",
    "run_jobs",
    "run_worker",
]

_COLLECTOR_EXPORTS = ("EpisodeCollector", "collect_slice", "partition_episodes")
_REMOTE_EXPORTS = ("WorkerCoordinator", "run_worker")


def __getattr__(name: str):
    # The collector and remote modules are re-exported lazily: both
    # import repro.nn, whose serialization module imports
    # repro.parallel.cache — an eager import here would close that
    # cycle while repro.nn is still initializing.
    if name in _COLLECTOR_EXPORTS:
        from repro.parallel import collector

        return getattr(collector, name)
    if name in _REMOTE_EXPORTS:
        from repro.parallel import remote

        return getattr(remote, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
