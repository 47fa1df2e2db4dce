"""A fixed reference kernel that tracks how fast the host runs right now.

The benchmark's host is a VM on a shared machine whose speed drifts by
about 20% over minutes (the same RL epoch takes 3.0 s in one minute and
4.8 s a few minutes later).  Drift that slow is the same across a whole
run, so no run length averages it away: over ten runs the RL epoch time
spread up to 0.25 (quartile distance over median).

Each run therefore also times this kernel, which is the benchmark's own
code and does not touch the program.  It mixes the kinds of work the
workloads do: an interpreter loop over dicts and small objects, many
numpy calls on tiny arrays, and a memory-streaming pass.  ``run.py``
samples it before and after each setup and each unit of work, and
scales the wall times of each to :data:`NOMINAL_S`:

    scaled time = wall time * NOMINAL_S / mean kernel time around it

Over ten runs per workload in a drifting half hour this cut the spread
of ``op_p50_ms`` from 0.21 to 0.11 on ``rl_train``, 0.34 to 0.09 on
``sa_hotspot``, 0.19 to 0.07 on ``serve_mixed`` and 0.19 to 0.12 on
``rl_train_pool``.

The unscaled wall times and every kernel sample are kept in the run's
detail line.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import numpy as np

#: Kernel seconds that scaled times refer to: about the kernel's usual
#: time on one core of the 2-vCPU 2.0 GHz Xeon VM the benchmark was
#: written on, so scaled times read as seconds on that host at its usual
#: speed.
NOMINAL_S = 0.042

#: Kernel calls per sample (about 0.35 s).  The host also flips between
#: a fast and a slow state within seconds (the kernel takes 28 or 42 ms),
#: so a sample must be long enough to average over both.
CALLS_PER_SAMPLE = 8

_RNG = np.random.default_rng(12345)
_VECTOR = _RNG.random(2_000_000)
_BUFFER = np.empty_like(_VECTOR)


class _Item:
    __slots__ = ("key", "pair")

    def __init__(self, key, pair):
        self.key = key
        self.pair = pair


def kernel() -> float:
    """One fixed unit of interpreter, small-array and memory work.  The
    large arrays are preallocated, so the time does not depend on how
    fast the process gets fresh pages."""
    total = 0
    table: dict = {}
    for i in range(60_000):
        total += i % 7
        table[i % 101] = total
    items = [_Item(i, [i, i + 1]) for i in range(10_000)]
    total += sum(item.pair[1] for item in items)
    small = np.arange(16.0)
    for _ in range(3_000):
        small = np.maximum(small * 0.5 + 1.0, 0.1)
    for _ in range(4):
        np.multiply(_VECTOR, 1.0001, out=_BUFFER)
    return total + float(small[0]) + float(_BUFFER[0])


class Reference:
    """Kernel samples of one run, in the order they were taken.

    The host's fast and slow states belong to each vCPU (at one moment
    the kernel takes 31 ms pinned to one and 42 ms pinned to the other).
    Unpinned, the kernel runs on the vCPU of the thread that runs a
    single-threaded workload, which is the one to measure.  A workload
    that keeps every core busy (``across_cpus``) is measured with equal
    shares of each sample pinned to each core in turn.
    """

    def __init__(self, across_cpus: bool = False):
        self.samples: list = []
        cpus = sorted(os.sched_getaffinity(0))
        self._pins = [{cpu} for cpu in cpus] if across_cpus else [None]

    def sample(self) -> float:
        """Mean seconds of one kernel call over one sample; also
        recorded.  The garbage collector is off meanwhile: a collection
        the kernel's allocations set off would scan the whole heap,
        which grows with the workload, not with the host's speed."""
        calls = []
        was_enabled = gc.isenabled()
        mask = os.sched_getaffinity(0)
        gc.disable()
        try:
            for pin in self._pins:
                if pin is not None:
                    os.sched_setaffinity(0, pin)
                for _ in range(max(1, CALLS_PER_SAMPLE // len(self._pins))):
                    start = time.perf_counter()
                    kernel()
                    calls.append(time.perf_counter() - start)
        finally:
            os.sched_setaffinity(0, mask)
            if was_enabled:
                gc.enable()
        seconds = statistics.fmean(calls)
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def slowdown(*samples: float) -> float:
        """How much slower than nominal the host ran over ``samples``."""
        return statistics.fmean(samples) / NOMINAL_S
