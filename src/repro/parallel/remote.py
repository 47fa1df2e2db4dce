"""Multi-machine episode collection: lease-based coordinator + workers.

The top rung of :class:`~repro.parallel.collector.EpisodeCollector`'s
degrade ladder.  The *protocol* is the collector's — one serialized
policy payload (:func:`repro.nn.dumps_payload`) per round and
wave-aligned episode slices merged in index order — carried over
length-prefixed, checksummed TCP frames (:mod:`repro.parallel.
transport`) instead of a ``ProcessPoolExecutor``.

Three pieces:

* :class:`WorkerCoordinator` — owns the listening socket.  Each
  connecting worker is registered under a **time-bounded lease**: the
  worker heartbeats every ``heartbeat_s``; a lease whose last
  heartbeat is older than ``lease_s`` is **fenced** (its connection is
  shut down, its in-flight slice returns to the dispatch queue) —
  silent worker death and network partitions both look like a missed
  heartbeat, and both lose nothing because slices are pure functions
  of (broadcast weight bytes, ``episode.{index}`` seed streams).
  Result acceptance is **first-delivery-wins**, keyed by (epoch id,
  slice index, weight-bytes digest): a stale lease holder that limps
  back after fencing cannot double-deliver a slice or deliver into the
  wrong epoch.
* :func:`run_worker` — the remote worker loop (the
  ``scripts/collect_worker.py`` entrypoint).  Connects, registers,
  builds its :class:`~repro.parallel.collector.ReplicaCollector` from
  the coordinator's init payload (the exact code every other rung
  runs), serves task frames, and **reconnects with seeded backoff**
  (reusing :class:`~repro.parallel.faults.RetryPolicy`) after any
  transient transport failure.
* :class:`RemoteRung` — the adapter the collector's ladder drives:
  one coordinator epoch per round.  Every rung runs the same pure
  slice functions on the same broadcast bytes, so **results are
  bitwise identical at any worker count, under any fault**, and a
  kill+resume of the training process stays bitwise even when it
  comes back with a different number of remote workers.
"""

from __future__ import annotations

import hashlib
import os
import socket
import threading
import time
import traceback
from collections import deque

from repro.nn import dumps_payload, loads_payload
from repro.parallel import chaos
from repro.parallel.collector import (
    ReplicaCollector,
    SliceRung,
    collect_one_slice,
)
from repro.parallel.faults import RetryPolicy
from repro.parallel.transport import (
    ConnectionClosed,
    FrameIntegrityError,
    TransportError,
    recv_frame,
    send_frame,
)
from repro.utils import get_logger

__all__ = [
    "RemoteCollectionError",
    "RemoteRung",
    "RemoteSliceError",
    "RemoteStallError",
    "WorkerCoordinator",
    "run_worker",
]

_logger = get_logger("parallel.remote")

#: ``kind`` tags of the remote-collection payloads (same versioned
#: schema as checkpoints and the pool's policy broadcast).
WORKER_INIT_KIND = "collector-worker-init"
SLICE_RESULT_KIND = "collector-slice-result"


class RemoteCollectionError(RuntimeError):
    """Base class for remote-collection failures."""


class RemoteSliceError(RemoteCollectionError):
    """A slice failed *deterministically* on a worker (a real bug).

    Carries the remote traceback; never retried — the identical pure
    computation would fail identically on every worker and every rung
    of the degradation ladder.
    """


class RemoteStallError(RemoteCollectionError):
    """The remote epoch could not finish (no live workers / fault storm).

    Transient by construction; ``results`` holds the slices that *did*
    deliver, so the caller completes only the missing ones down the
    degradation ladder.
    """

    def __init__(self, message: str, results: dict):
        super().__init__(message)
        self.results = results


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------


class _Lease:
    """Coordinator-side record of one registered worker connection.

    All mutable fields are guarded by the coordinator's condition
    except ``send_lock``, which serializes frame writers on the socket
    (the epoch pump and the shutdown broadcast may race).
    """

    def __init__(self, lease_id: str, worker_id: str, sock, addr):
        self.id = lease_id
        self.worker_id = worker_id
        self.sock = sock
        self.addr = addr
        self.send_lock = threading.Lock()
        self.last_beat = time.monotonic()
        self.task: int | None = None  # slice index in flight, if any
        self.task_since: float | None = None  # when that slice was assigned
        self.ready = False  # lease frame sent; eligible for tasks
        self.fenced = False


class WorkerCoordinator:
    """Registers remote workers under leases and drives epoch fan-out.

    Parameters
    ----------
    init_payload:
        Serialized worker-init payload (:data:`WORKER_INIT_KIND`):
        the pickled system / reward calculator / env config plus the
        replica hyperparameters.  Sent once per lease; workers cache
        the built replica by the payload digest across re-leases.
    host, port:
        Bind address.  ``port=0`` binds an ephemeral port; read the
        real one from :attr:`address`.
    lease_s:
        A lease whose last heartbeat is older than this is fenced and
        its in-flight slice re-queued.
    heartbeat_s:
        Interval workers are told to heartbeat at (default
        ``lease_s / 4``).
    """

    def __init__(
        self,
        init_payload: bytes,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_s: float = 15.0,
        heartbeat_s: float | None = None,
    ):
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        self._init_payload = init_payload
        self._init_digest = _digest(init_payload)
        self.lease_s = float(lease_s)
        self.heartbeat_s = (
            float(heartbeat_s) if heartbeat_s is not None else lease_s / 4.0
        )
        self._cond = threading.Condition()
        self._leases: dict[str, _Lease] = {}
        self._lease_counter = 0
        self._epoch: dict | None = None
        self._epoch_counter = 0
        self._closed = False
        self.stats = {
            "registered": 0,
            "fenced": 0,
            "requeued": 0,
            "duplicate_results": 0,
            "stale_results": 0,
            "transient_task_errors": 0,
        }
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self._listener.settimeout(0.25)
        self.address = self._listener.getsockname()[:2]
        self._threads: list = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"coordinator-accept:{self.address[1]}",
            daemon=True,
        )
        self._accept_thread.start()
        _logger.info(
            "coordinator listening on %s:%d (lease %.1fs, heartbeat %.1fs)",
            *self.address,
            self.lease_s,
            self.heartbeat_s,
        )

    # -- connection handling -------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            with self._cond:
                if self._closed:
                    return
            try:
                conn, addr = self._listener.accept()
            except (TimeoutError, socket.timeout):
                continue
            except OSError:
                return  # listener closed under us
            action = chaos.maybe_fail("transport.accept", f"{addr[0]}")
            if action in ("drop", "disconnect"):
                _logger.warning("chaos rejected a connection from %s", addr)
                conn.close()
                continue
            thread = threading.Thread(
                target=self._handle,
                args=(conn, addr),
                name=f"coordinator-conn:{addr[1]}",
                daemon=True,
            )
            with self._cond:
                if self._closed:
                    conn.close()
                    return
                self._threads.append(thread)
            thread.start()

    def _handle(self, conn, addr) -> None:
        """Per-connection handler: handshake, then serve worker frames."""
        lease = None
        reason = "connection closed"
        try:
            conn.settimeout(10.0)
            kind, meta, _ = recv_frame(conn, detail="coordinator")
            if kind != "hello":
                raise FrameIntegrityError(
                    f"expected a hello frame, got {kind!r}"
                )
            lease = self._register(conn, addr, meta)
            send_frame(
                conn,
                "lease",
                {
                    "lease": lease.id,
                    "heartbeat_s": self.heartbeat_s,
                    "lease_s": self.lease_s,
                    "init_digest": self._init_digest,
                },
                self._init_payload,
                lock=lease.send_lock,
                detail="coordinator",
            )
            with self._cond:
                lease.ready = True
                self._cond.notify_all()
            self._pump()  # a fresh worker may take queued work at once
            conn.settimeout(max(self.heartbeat_s, 0.2))
            while True:
                with self._cond:
                    if self._closed or lease.fenced:
                        reason = "fenced" if lease.fenced else "shutdown"
                        return
                frame = recv_frame(conn, idle_ok=True, detail="coordinator")
                if frame is None:
                    continue
                kind, meta, blob = frame
                if kind == "heartbeat":
                    with self._cond:
                        lease.last_beat = time.monotonic()
                elif kind == "result":
                    self._deliver(lease, meta, blob)
                elif kind == "task-error":
                    self._task_error(lease, meta)
                elif kind == "goodbye":
                    reason = "worker said goodbye"
                    return
                else:
                    raise FrameIntegrityError(
                        f"unexpected frame kind {kind!r} from a worker"
                    )
        except (TransportError, OSError, EOFError) as error:
            reason = repr(error)
        finally:
            self._drop(lease, reason)
            try:
                conn.close()
            except OSError:
                pass

    def _register(self, conn, addr, meta: dict) -> _Lease:
        with self._cond:
            if self._closed:
                raise ConnectionClosed("coordinator is shutting down")
            self._lease_counter += 1
            lease = _Lease(
                f"lease-{self._lease_counter}",
                str(meta.get("worker", f"{addr[0]}:{addr[1]}")),
                conn,
                addr,
            )
            self._leases[lease.id] = lease
            self.stats["registered"] += 1
            _logger.info(
                "registered %s as %s from %s:%d",
                lease.worker_id,
                lease.id,
                *addr[:2],
            )
            return lease

    def _fence_locked(self, lease: _Lease, reason: str) -> None:
        """Fence a lease: dead to dispatch, its slice re-queued.

        Caller holds the condition.  Shutting the socket down (not just
        closing it) wakes the handler thread out of a blocking recv, so
        the fence takes effect within one poll interval.
        """
        if lease.fenced:
            return
        lease.fenced = True
        self.stats["fenced"] += 1
        _logger.warning("fencing %s (%s): %s", lease.id, lease.worker_id, reason)
        self._requeue_locked(lease)
        try:
            lease.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._cond.notify_all()

    def _requeue_locked(self, lease: _Lease) -> None:
        """Return a fenced/dead lease's undelivered slice to the queue."""
        index, lease.task = lease.task, None
        lease.task_since = None
        epoch = self._epoch
        if index is None or epoch is None:
            return
        if epoch["outstanding"].get(index) != lease.id:
            return  # already re-issued to (or delivered by) someone else
        del epoch["outstanding"][index]
        if index not in epoch["results"]:
            epoch["queue"].append(index)
            self.stats["requeued"] += 1
            _logger.warning(
                "slice %d returned to the dispatch queue (lease %s lost); "
                "re-dispatch is bitwise — slices are pure in the broadcast "
                "bytes and their seed streams",
                index,
                lease.id,
            )

    def _drop(self, lease: _Lease | None, reason: str) -> None:
        if lease is None:
            return
        with self._cond:
            self._leases.pop(lease.id, None)
            if not lease.fenced:
                lease.fenced = True
                self.stats["fenced"] += 1
            self._requeue_locked(lease)
            self._cond.notify_all()
        _logger.info("dropped %s (%s): %s", lease.id, lease.worker_id, reason)

    # -- epoch lifecycle -----------------------------------------------

    def begin_epoch(
        self,
        weights: bytes,
        slices: list,
        greedy: bool = False,
        chaos_point: str = "collector.slice",
    ) -> int:
        """Queue ``[(index, (start, size)), ...]`` for dispatch.

        Returns the epoch id.  Dispatch starts immediately (idle leased
        workers get a task before this returns), so a prefetched epoch
        genuinely overlaps the caller's PPO update.
        """
        with self._cond:
            if self._epoch is not None:
                # Defensive: an aborted/failed predecessor should have
                # cleared itself; a stale epoch must never leak results
                # into a new one (the digest/id keys would reject them,
                # but the queue state would wedge dispatch).
                _logger.warning(
                    "begin_epoch with epoch %d still active; discarding it",
                    self._epoch["id"],
                )
                self._clear_epoch_locked()
            self._epoch_counter += 1
            self._epoch = {
                "id": self._epoch_counter,
                "digest": _digest(weights),
                "weights": weights,
                "greedy": bool(greedy),
                "chaos_point": chaos_point,
                "slices": {index: bounds for index, bounds in slices},
                "queue": deque(index for index, _ in slices),
                "outstanding": {},
                "results": {},
                "errors": [],
                "transient_failures": 0,
            }
            epoch_id = self._epoch_counter
        self._pump()
        return epoch_id

    def _clear_epoch_locked(self) -> None:
        self._epoch = None
        for lease in self._leases.values():
            lease.task = None
            lease.task_since = None

    def abort_epoch(self, epoch_id: int) -> dict:
        """Drop an epoch (cancelled prefetch); returns delivered results.

        Workers mid-slice finish and deliver into the void — the epoch
        id no longer matches, so their results are counted stale and
        discarded.  Nothing is consumed, so determinism is unaffected.
        """
        with self._cond:
            epoch = self._epoch
            if epoch is None or epoch["id"] != epoch_id:
                return {}
            results = epoch["results"]
            self._clear_epoch_locked()
            return results

    def _assignable_locked(self):
        epoch = self._epoch
        # An epoch with a deterministic slice failure is already lost:
        # drive_epoch raises on it, so dispatch nothing more from it.
        if epoch is None or epoch["errors"] or not epoch["queue"]:
            return None
        for lease in self._leases.values():
            if lease.ready and not lease.fenced and lease.task is None:
                index = epoch["queue"].popleft()
                lease.task = index
                lease.task_since = time.monotonic()
                epoch["outstanding"][index] = lease.id
                start, size = epoch["slices"][index]
                meta = {
                    "task": index,
                    "epoch": epoch["id"],
                    "digest": epoch["digest"],
                    "start": start,
                    "count": size,
                    "greedy": epoch["greedy"],
                    "chaos_point": epoch["chaos_point"],
                    "lease": lease.id,
                }
                return lease, meta, epoch["weights"]
        return None

    def _pump(self) -> None:
        """Assign queued slices to idle leased workers and send them.

        Claims happen under the condition; the (potentially large)
        weight-broadcast send happens outside it so a slow wire never
        blocks heartbeat processing into spurious lease expiries.
        """
        while True:
            with self._cond:
                assignment = self._assignable_locked()
            if assignment is None:
                return
            lease, meta, weights = assignment
            try:
                send_frame(
                    lease.sock,
                    "task",
                    meta,
                    weights,
                    lock=lease.send_lock,
                    detail="coordinator",
                )
            except (TransportError, OSError) as error:
                with self._cond:
                    self._fence_locked(lease, f"task send failed: {error!r}")

    def _deliver(self, lease: _Lease, meta: dict, blob: bytes) -> None:
        """Accept (or reject) one result frame; first-delivery-wins.

        Decoding happens outside the lock (it is the expensive part and
        handler threads may decode concurrently); acceptance is keyed
        on (epoch id, slice index, weight digest) under the lock, so a
        stale or duplicate delivery is dropped, never merged twice.
        """
        try:
            pairs = loads_payload(blob, kind=SLICE_RESULT_KIND)["pairs"]
        except Exception as error:  # noqa: BLE001 - classify below
            self._task_error(
                lease,
                {
                    "task": meta.get("task"),
                    "epoch": meta.get("epoch"),
                    "digest": meta.get("digest"),
                    "transient": RetryPolicy.is_transient(error),
                    "message": f"undecodable result payload: {error!r}",
                    "trace": traceback.format_exc(),
                },
            )
            return
        with self._cond:
            lease.last_beat = time.monotonic()
            if lease.task == meta.get("task"):
                lease.task = None
                lease.task_since = None
            epoch = self._epoch
            if (
                epoch is None
                or meta.get("epoch") != epoch["id"]
                or meta.get("digest") != epoch["digest"]
            ):
                self.stats["stale_results"] += 1
                _logger.info(
                    "dropping stale result from %s (epoch %s vs %s)",
                    lease.id,
                    meta.get("epoch"),
                    None if epoch is None else epoch["id"],
                )
                return
            index = meta.get("task")
            if index not in epoch["slices"]:
                self.stats["stale_results"] += 1
                return
            if index in epoch["results"]:
                self.stats["duplicate_results"] += 1
                _logger.warning(
                    "dropping duplicate delivery of slice %s from %s "
                    "(first-delivery-wins)",
                    index,
                    lease.id,
                )
                return
            epoch["results"][index] = pairs
            if epoch["outstanding"].get(index) == lease.id:
                del epoch["outstanding"][index]
            self._cond.notify_all()
        self._pump()  # this worker is idle again; hand it the next slice

    def _task_error(self, lease: _Lease, meta: dict) -> None:
        with self._cond:
            lease.last_beat = time.monotonic()
            if lease.task == meta.get("task"):
                lease.task = None
                lease.task_since = None
            epoch = self._epoch
            if (
                epoch is None
                or meta.get("epoch") != epoch["id"]
                or meta.get("digest") != epoch["digest"]
            ):
                self.stats["stale_results"] += 1
                return
            index = meta.get("task")
            if meta.get("transient", False):
                self.stats["transient_task_errors"] += 1
                epoch["transient_failures"] += 1
                if epoch["outstanding"].get(index) == lease.id:
                    del epoch["outstanding"][index]
                if (
                    index in epoch["slices"]
                    and index not in epoch["results"]
                    and index not in epoch["queue"]
                ):
                    epoch["queue"].append(index)
                    self.stats["requeued"] += 1
                _logger.warning(
                    "slice %s failed transiently on %s (%s); re-queued",
                    index,
                    lease.id,
                    meta.get("message"),
                )
            else:
                epoch["errors"].append(
                    f"slice {index} failed deterministically on "
                    f"{lease.worker_id}: {meta.get('message')}\n"
                    f"{meta.get('trace', '')}"
                )
            self._cond.notify_all()
        self._pump()

    def live_workers(self) -> int:
        """Leases currently eligible for dispatch."""
        with self._cond:
            return sum(
                1
                for lease in self._leases.values()
                if lease.ready and not lease.fenced
            )

    def drive_epoch(
        self,
        epoch_id: int,
        *,
        worker_wait_s: float = 30.0,
        task_timeout_s: float | None = None,
    ) -> dict:
        """Block until the epoch completes; returns ``{index: pairs}``.

        The fault loop: expired leases are fenced and their slices
        re-queued; ``task_timeout_s`` (optional) additionally fences a
        live-but-stuck worker whose slice made no progress.  Raises
        :class:`RemoteSliceError` on a deterministic slice failure and
        :class:`RemoteStallError` — carrying the partial results — when
        no worker has been available for ``worker_wait_s`` or transient
        task failures storm past ``4 * n_slices``.
        """
        starved_since = None
        while True:
            self._pump()
            with self._cond:
                epoch = self._epoch
                if epoch is None or epoch["id"] != epoch_id:
                    raise RemoteStallError(
                        f"epoch {epoch_id} is no longer active", {}
                    )
                if epoch["errors"]:
                    message = "\n".join(epoch["errors"])
                    self._clear_epoch_locked()
                    raise RemoteSliceError(message)
                if len(epoch["results"]) == len(epoch["slices"]):
                    results = epoch["results"]
                    self._clear_epoch_locked()
                    return results
                storm = max(8, 4 * len(epoch["slices"]))
                if epoch["transient_failures"] > storm:
                    results = epoch["results"]
                    self._clear_epoch_locked()
                    raise RemoteStallError(
                        f"{storm}+ transient task failures this epoch — "
                        "giving up on remote collection for this round",
                        results,
                    )
                now = time.monotonic()
                for lease in list(self._leases.values()):
                    if lease.fenced:
                        continue
                    if now - lease.last_beat > self.lease_s:
                        self._fence_locked(
                            lease,
                            f"lease expired ({now - lease.last_beat:.1f}s "
                            f"since last heartbeat > {self.lease_s:.1f}s)",
                        )
                    elif (
                        task_timeout_s is not None
                        and lease.task is not None
                        and lease.task_since is not None
                        # Deliberately NOT last_beat: a wedged worker
                        # still heartbeats; progress on the *slice* is
                        # what this clock measures.
                        and now - lease.task_since > task_timeout_s
                    ):
                        self._fence_locked(
                            lease,
                            f"slice {lease.task} stuck for "
                            f"{task_timeout_s:.1f}s",
                        )
                live = sum(
                    1
                    for lease in self._leases.values()
                    if lease.ready and not lease.fenced
                )
                if live:
                    starved_since = None
                else:
                    if starved_since is None:
                        starved_since = now
                    elif now - starved_since > worker_wait_s:
                        results = epoch["results"]
                        self._clear_epoch_locked()
                        raise RemoteStallError(
                            f"no remote worker available for "
                            f"{worker_wait_s:.1f}s with "
                            f"{len(epoch['slices']) - len(results)} "
                            "slice(s) undelivered",
                            results,
                        )
                self._cond.wait(0.1)

    def close(self) -> None:
        """Shut down: drain workers cleanly, then stop accepting.

        Every leased worker is sent a ``shutdown`` frame (a clean drain
        — :func:`run_worker` exits 0 on it, or reconnects later in
        persist mode) before its connection closes.  Idempotent.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            leases = list(self._leases.values())
            self._clear_epoch_locked()
            self._cond.notify_all()
        for lease in leases:
            try:
                send_frame(
                    lease.sock,
                    "shutdown",
                    {"lease": lease.id},
                    lock=lease.send_lock,
                    detail="coordinator",
                )
            except (TransportError, OSError):
                pass
            try:
                lease.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5.0)
        for thread in list(self._threads):
            thread.join(timeout=5.0)
        _logger.info("coordinator on port %d closed", self.address[1])

    def __enter__(self) -> "WorkerCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------


def _serve_task(replica, sock, send_lock, meta, blob, detail, lease_id):
    """Run one task frame through the replica and send the outcome.

    A failure inside the slice (chaos, a transient hiccup, a real bug)
    is *reported*, not raised: the worker stays leased and keeps
    serving — the coordinator decides whether the slice re-queues
    (transient) or the epoch fails (deterministic).
    """
    index = meta["task"]
    try:
        pairs = collect_one_slice(
            replica,
            blob,
            meta["start"],
            meta["count"],
            meta["greedy"],
            meta.get("chaos_point", "collector.slice"),
        )
        result = dumps_payload({"pairs": pairs}, kind=SLICE_RESULT_KIND)
    except Exception as error:  # noqa: BLE001 - reported, classified
        send_frame(
            sock,
            "task-error",
            {
                "task": index,
                "epoch": meta["epoch"],
                "digest": meta["digest"],
                "lease": lease_id,
                "transient": RetryPolicy.is_transient(error),
                "message": repr(error),
                "trace": traceback.format_exc(),
            },
            lock=send_lock,
            detail=detail,
        )
        return
    send_frame(
        sock,
        "result",
        {
            "task": index,
            "epoch": meta["epoch"],
            "digest": meta["digest"],
            "lease": lease_id,
        },
        result,
        lock=send_lock,
        detail=detail,
    )


def _build_replica(cache: dict, init_digest: str, blob: bytes):
    """The worker's env+network replica, cached across re-leases."""
    if cache.get("digest") != init_digest or cache.get("replica") is None:
        spec = loads_payload(blob, kind=WORKER_INIT_KIND)
        cache["replica"] = ReplicaCollector(
            spec["system"],
            spec["reward_calculator"],
            spec["env_config"],
            spec["channels"],
            spec["batch_size"],
            spec["seed"],
        )
        cache["digest"] = init_digest
    return cache["replica"]


def run_worker(
    host: str,
    port: int,
    *,
    worker_id: str | None = None,
    policy: RetryPolicy | None = None,
    max_reconnects: int | None = None,
    persist: bool = False,
    stop_event: threading.Event | None = None,
    connect_timeout: float = 5.0,
) -> int:
    """Serve collection tasks from the coordinator at ``(host, port)``.

    The remote half of :class:`RemoteRung` — run it on any
    machine that can reach the coordinator (``scripts/collect_worker.py``
    is the CLI wrapper).  Returns 0 on a clean coordinator-initiated
    shutdown.

    Fault behavior: any transport failure (connection refused, reset,
    checksum mismatch, fenced lease) triggers a reconnect with seeded
    exponential backoff (``policy`` — default unlimited patience, so a
    worker outlives trainer restarts).  ``max_reconnects`` bounds
    *consecutive* failed attempts (a successful lease resets the
    count); past it the last transport error re-raises.  ``persist``
    makes even a clean shutdown reconnect (fleet mode: one long-lived
    worker process serving many successive training runs).
    ``stop_event`` is the programmatic kill switch (tests, the CLI's
    signal handler).
    """
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    policy = policy if policy is not None else RetryPolicy()
    detail = f"worker:{worker_id}"
    cache: dict = {}
    attempts = 0
    while True:
        if stop_event is not None and stop_event.is_set():
            return 0
        sock = None
        hb_stop = threading.Event()
        hb_thread = None
        try:
            sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
            sock.settimeout(10.0)
            send_lock = threading.Lock()
            send_frame(
                sock,
                "hello",
                {"worker": worker_id, "pid": os.getpid()},
                lock=send_lock,
                detail=detail,
            )
            kind, meta, blob = recv_frame(sock, detail=detail)
            if kind != "lease":
                raise FrameIntegrityError(
                    f"expected a lease frame, got {kind!r}"
                )
            attempts = 0  # a granted lease resets the reconnect budget
            lease_id = meta["lease"]
            heartbeat_s = float(meta["heartbeat_s"])
            replica = _build_replica(cache, meta["init_digest"], blob)
            _logger.info(
                "%s leased as %s (heartbeat %.1fs)",
                worker_id,
                lease_id,
                heartbeat_s,
            )

            def beat() -> None:
                while not hb_stop.wait(heartbeat_s):
                    try:
                        send_frame(
                            sock,
                            "heartbeat",
                            {"lease": lease_id},
                            lock=send_lock,
                            detail=detail,
                        )
                    except (TransportError, OSError):
                        return  # main loop will notice the dead socket

            hb_thread = threading.Thread(
                target=beat, name=f"heartbeat:{worker_id}", daemon=True
            )
            hb_thread.start()
            sock.settimeout(max(heartbeat_s, 0.2))
            while True:
                if stop_event is not None and stop_event.is_set():
                    try:
                        send_frame(
                            sock,
                            "goodbye",
                            {"lease": lease_id},
                            lock=send_lock,
                            detail=detail,
                        )
                    except (TransportError, OSError):
                        pass
                    return 0
                frame = recv_frame(sock, idle_ok=True, detail=detail)
                if frame is None:
                    continue
                kind, meta, blob = frame
                if kind == "task":
                    _serve_task(
                        replica, sock, send_lock, meta, blob, detail, lease_id
                    )
                elif kind == "shutdown":
                    if not persist:
                        _logger.info(
                            "%s: coordinator shut down; exiting cleanly",
                            worker_id,
                        )
                        return 0
                    raise ConnectionClosed(
                        "coordinator shut down (persist mode reconnects)"
                    )
                else:
                    raise FrameIntegrityError(
                        f"unexpected frame kind {kind!r} from coordinator"
                    )
        except (TransportError, OSError, EOFError) as error:
            if stop_event is not None and stop_event.is_set():
                return 0
            attempts += 1
            if max_reconnects is not None and attempts > max_reconnects:
                _logger.error(
                    "%s: giving up after %d consecutive failed "
                    "connection attempts: %r",
                    worker_id,
                    attempts,
                    error,
                )
                raise
            delay = policy.backoff(worker_id, min(attempts, 16))
            _logger.warning(
                "%s: transport failure (%r); reconnecting in %.2fs "
                "(attempt %d%s)",
                worker_id,
                error,
                delay,
                attempts,
                "" if max_reconnects is None else f"/{max_reconnects}",
            )
            if stop_event is not None:
                if stop_event.wait(delay):
                    return 0
            else:
                time.sleep(delay)
        finally:
            hb_stop.set()
            if hb_thread is not None:
                hb_thread.join(timeout=2.0)
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass


# ----------------------------------------------------------------------
# the collector's remote rung
# ----------------------------------------------------------------------


class RemoteRung(SliceRung):
    """The top rung of :class:`~repro.parallel.collector.EpisodeCollector`.

    Dispatches a slice set as one coordinator epoch and gathers it;
    a round that ends with slices undelivered (no leased worker for
    ``worker_wait_s``, a transient-failure storm) reports its partial
    results and fails, so the collector completes the rest one rung
    down.  Ready for a re-probe only once a worker holds a lease —
    probing an empty coordinator would stall ``worker_wait_s`` for
    nothing.
    """

    name = "remote workers"

    def __init__(
        self,
        replica_args: tuple,
        *,
        host: str,
        port: int,
        lease_s: float,
        heartbeat_s: float | None,
        worker_wait_s: float,
    ):
        super().__init__()
        system, reward_calculator, env_config, channels, batch_size, seed = (
            replica_args
        )
        self._init_payload = dumps_payload(
            {
                "system": system,
                "reward_calculator": reward_calculator,
                "env_config": env_config,
                "channels": channels,
                "batch_size": batch_size,
                "seed": seed,
            },
            kind=WORKER_INIT_KIND,
        )
        self._host = host
        self._port = port
        self._lease_s = lease_s
        self._heartbeat_s = heartbeat_s
        self.worker_wait_s = worker_wait_s
        self.coordinator: WorkerCoordinator | None = None
        self._ensure()  # bind now: workers may lease in before epoch 0

    def _ensure(self) -> WorkerCoordinator:
        if self.coordinator is None:
            self.coordinator = WorkerCoordinator(
                self._init_payload,
                host=self._host,
                port=self._port,
                lease_s=self._lease_s,
                heartbeat_s=self._heartbeat_s,
            )
            # Pin the ephemeral port: a close()/reopen cycle (train()
            # closes the collector after every run) rebinds the same
            # address so long-lived workers can find it again.
            self._port = self.coordinator.address[1]
        return self.coordinator

    @property
    def address(self) -> tuple:
        """The coordinator's ``(host, port)`` workers connect to."""
        return self._ensure().address

    @property
    def active(self) -> bool:
        return self.coordinator is not None

    def ready(self) -> bool:
        return (
            self.coordinator is not None
            and self.coordinator.live_workers() > 0
        )

    def dispatch(self, weights, slices, greedy, chaos_point) -> int:
        return self._ensure().begin_epoch(weights, slices, greedy, chaos_point)

    def gather(self, epoch_id: int, results: dict, slice_timeout):
        try:
            results.update(
                self.coordinator.drive_epoch(
                    epoch_id,
                    worker_wait_s=self.worker_wait_s,
                    task_timeout_s=slice_timeout,
                )
            )
        except RemoteStallError as error:
            results.update(error.results)
            return str(error)
        return None

    def cancel(self, epoch_id: int) -> None:
        if self.coordinator is not None:
            self.coordinator.abort_epoch(epoch_id)

    def close(self, wait: bool = True) -> None:
        """Drain leased workers; the coordinator rebinds lazily."""
        if self.coordinator is not None:
            self.coordinator.close()
            self.coordinator = None
