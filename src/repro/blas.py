"""BLAS thread policy of the command-line and serve processes.

numpy's BLAS (OpenBLAS here) and OpenMP read their thread counts from
the environment once, when the library loads, so the policy has to be
set before numpy is first imported.  :func:`apply_thread_policy` sets
every variable in :data:`BLAS_THREAD_VARS` to one thread unless the
user already set it: an explicit setting always wins.

One thread per process is the policy because every hot path here is
small products and sparse solves.  SuperLU's blocked characterization
solve took 5.8-22.9 ms per column under two OpenBLAS threads against
5.2-6.3 ms pinned on a 2-core host, and the process pools add their
own workers on top.  ``repro.cli`` (and so ``scripts/serve.py``) and
``repro.serve`` apply it on import, before they load numpy;
``perfbench/run.py`` pins the same variables unconditionally.

This module imports nothing but the standard library, and the
``repro`` package root loads its exports lazily, so importing
``repro.cli`` or ``repro.serve`` first really does precede numpy.
"""

from __future__ import annotations

import os

__all__ = ["BLAS_THREAD_VARS", "apply_thread_policy"]

#: Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def apply_thread_policy() -> None:
    """Default every :data:`BLAS_THREAD_VARS` entry to ``"1"``."""
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
