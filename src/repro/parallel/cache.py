"""Cross-process file coordination for shared on-disk caches.

Two primitives, both deliberately tiny:

* :class:`FileLock` — an advisory exclusive lock on a sidecar ``.lock``
  file (``flock`` where available, exclusive-create spinning
  otherwise).  The lock file is never deleted, which sidesteps the
  classic unlink-while-held race; it is a zero-byte sidecar next to the
  artifact it guards.
* :func:`atomic_replace` — write-to-temp-then-``os.replace`` so readers
  either see the complete artifact or none at all, never a torn write.

Together they give ``load_or_characterize`` its concurrency contract:
any number of worker processes may ask for the same thermal-table cache
entry and exactly one of them computes and publishes it, atomically.
"""

from __future__ import annotations

import contextlib
import os
import time
from pathlib import Path

try:  # POSIX (Linux/macOS; the CI and dev machines)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["FileLock", "atomic_replace"]


class FileLock:
    """Advisory exclusive lock on ``path`` (a dedicated lock file).

    Usage::

        with FileLock(cache_path.with_name(cache_path.name + ".lock")):
            ...  # critical section

    Blocking with a timeout; re-entrant use within one process is not
    supported (and not needed here).
    """

    def __init__(self, path, timeout: float = 600.0, poll: float = 0.05):
        self.path = Path(path)
        self.timeout = timeout
        self.poll = poll
        self._fd = None

    def acquire(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.timeout
        if fcntl is not None:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    self._fd = fd
                    return
                except OSError:
                    if time.monotonic() > deadline:
                        os.close(fd)
                        raise TimeoutError(
                            f"could not lock {self.path} in {self.timeout}s"
                        )
                    time.sleep(self.poll)
        else:  # pragma: no cover - non-POSIX fallback
            while True:
                try:
                    self._fd = os.open(
                        self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644
                    )
                    return
                except FileExistsError:
                    if time.monotonic() > deadline:
                        raise TimeoutError(
                            f"could not lock {self.path} in {self.timeout}s"
                        )
                    time.sleep(self.poll)

    def release(self) -> None:
        if self._fd is None:
            return
        if fcntl is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
        else:  # pragma: no cover - non-POSIX fallback
            os.close(self._fd)
            with contextlib.suppress(FileNotFoundError):
                self.path.unlink()
        self._fd = None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


@contextlib.contextmanager
def atomic_replace(path):
    """Yield a temp path; on success rename it onto ``path`` atomically.

    The temp file lives in the destination directory so the final
    ``os.replace`` stays on one filesystem.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            tmp.unlink()
