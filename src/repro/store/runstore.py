"""Content-addressed run store: results + checkpoints for resumable runs.

The store gives every long-running unit of work (a (benchmark x method)
experiment arm, an ablation variant, a Table II dataset shard) a stable
**content-addressed key** — the SHA-256 of a canonical encoding of
``(job kind, payload, STORE_SCHEMA_VERSION)`` — and two slots per key:

* a **result** slot, published exactly once when the unit completes
  (the scheduler consults it before dispatching, so finished work is
  never re-executed on a ``--resume``);
* a **checkpoint** slot, overwritten periodically while the unit runs
  (an interrupted unit restarts from its latest checkpoint with
  bitwise-identical final output, and the slot is cleared on
  completion).

Both slots use the :mod:`repro.parallel.cache` discipline — a sidecar
:class:`~repro.parallel.cache.FileLock` around writes and
write-temp-then-``os.replace`` publication — so any number of worker
processes can share one store directory: readers see a complete
artifact or none, never a torn one.

Cache invalidation is by key construction: a changed budget, seed,
benchmark definition or ``STORE_SCHEMA_VERSION`` produces a different
key, so stale artifacts are simply never addressed again (and can be
garbage-collected by deleting the store directory).

Layout on disk::

    <root>/results/<key[:2]>/<key>.pkl
    <root>/checkpoints/<key[:2]>/<key>.ckpt.pkl
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import threading
from pathlib import Path

from repro.parallel import chaos
from repro.parallel.cache import FileLock, atomic_replace
from repro.utils import get_logger

_logger = get_logger("store.runstore")

__all__ = ["DEFAULT_STORE_DIR", "RunStore", "STORE_SCHEMA_VERSION", "store_key"]

#: Bump on any change that silently alters what a stored result means
#: (reward semantics, budget interpretation, checkpoint payloads...).
#: Every key mixes it in, so a bump orphans — rather than corrupts —
#: existing artifacts.  v2: the grid solver's symmetric factorization
#: and blocked characterization moved every thermal figure at the 1e-10
#: level, so results and checkpoints from v1 are not resumed into it.
#: v3: the policy network trains in float32, so float64-era results and
#: checkpoints are orphaned rather than resumed.
STORE_SCHEMA_VERSION = 3

DEFAULT_STORE_DIR = Path(".cache/runstore")

_MISS = object()


def _canonical(value):
    """Reduce ``value`` to a JSON-stable structure for hashing.

    Dicts sort by key, tuples become lists, floats become their exact
    hex spellings (``repr`` round-trips too, but hex is unambiguous
    across formatting changes), dataclasses become field dicts.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, Path):
        return str(value)
    raise TypeError(
        f"store key payloads must be JSON-like, got {type(value).__name__}"
    )


def store_key(kind: str, payload: dict) -> str:
    """Stable content-addressed key for ``(kind, payload)``.

    Equal payloads (up to tuple/list and dict ordering) hash equally on
    every platform and process; any semantic difference — including a
    ``STORE_SCHEMA_VERSION`` bump — yields a fresh key.
    """
    document = {
        "schema": STORE_SCHEMA_VERSION,
        "kind": str(kind),
        "payload": _canonical(payload),
    }
    encoded = json.dumps(
        document, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


class RunStore:
    """Content-addressed artifact cache rooted at one directory.

    Safe for concurrent use from multiple processes (each builds its own
    instance over the shared root) and from multiple threads of one
    process (the serve layer shares one instance across request
    threads).  ``hits``/``misses`` count this instance's result
    lookups — the accounting the resume tests assert on ("a completed
    sweep re-executes zero arms") — behind a lock, since ``+= 1`` on a
    plain attribute is not atomic across threads.
    """

    def __init__(self, root=DEFAULT_STORE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self._counter_lock = threading.Lock()

    # -- paths ----------------------------------------------------------

    def result_path(self, key: str) -> Path:
        return self.root / "results" / key[:2] / f"{key}.pkl"

    def checkpoint_path(self, key: str) -> Path:
        return self.root / "checkpoints" / key[:2] / f"{key}.ckpt.pkl"

    # -- results --------------------------------------------------------

    def contains(self, key: str) -> bool:
        return self.result_path(key).exists()

    def fetch(self, key: str) -> tuple:
        """``(hit, value)`` — distinguishes a stored ``None`` from a miss."""
        value = self._read(self.result_path(key))
        if value is _MISS:
            with self._counter_lock:
                self.misses += 1
            return False, None
        with self._counter_lock:
            self.hits += 1
        return True, value

    def get(self, key: str, default=None):
        hit, value = self.fetch(key)
        return value if hit else default

    def counters(self) -> tuple:
        """Consistent ``(hits, misses)`` snapshot across threads."""
        with self._counter_lock:
            return self.hits, self.misses

    def put(self, key: str, value) -> None:
        """Publish a completed result (atomic; last writer wins)."""
        self._write(self.result_path(key), value)

    # -- checkpoints ----------------------------------------------------

    def save_checkpoint(self, key: str, payload) -> None:
        """Overwrite the key's in-flight checkpoint (atomic)."""
        self._write(self.checkpoint_path(key), payload)

    def load_checkpoint(self, key: str, default=None):
        value = self._read(self.checkpoint_path(key))
        return default if value is _MISS else value

    def clear_checkpoint(self, key: str) -> None:
        """Drop the in-flight checkpoint (the unit completed)."""
        path = self.checkpoint_path(key)
        if not path.exists():
            return  # nothing to clear; don't litter lock files
        with FileLock(path.with_name(path.name + ".lock")):
            path.unlink(missing_ok=True)

    # -- plumbing -------------------------------------------------------

    @staticmethod
    def _read(path: Path):
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return _MISS
        try:
            return pickle.loads(blob)
        except Exception:
            # Truncated/corrupt artifact (torn disk, killed writer on a
            # filesystem without atomic replace...).  Quarantine it —
            # rename to ``*.corrupt`` so it stops being addressed and
            # stays around for a post-mortem — and report a miss: the
            # unit simply re-runs, which is always safe (results are
            # pure functions of their key).
            RunStore._quarantine(path)
            return _MISS

    @staticmethod
    def _quarantine(path: Path) -> None:
        target = path.with_name(path.name + ".corrupt")
        with FileLock(path.with_name(path.name + ".lock")):
            try:
                path.replace(target)
            except FileNotFoundError:
                return  # another reader quarantined it first
        _logger.warning(
            "quarantined corrupt store artifact %s -> %s; treating as a "
            "miss (the unit will re-run)",
            path,
            target.name,
        )

    @staticmethod
    def _write(path: Path, value) -> None:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        chaos.maybe_fail("store.write", path.name)
        with FileLock(path.with_name(path.name + ".lock")):
            with atomic_replace(path) as tmp:
                tmp.write_bytes(blob)
