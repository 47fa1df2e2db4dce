"""Per-layer spans recorded around the public entry points of each layer.

The benchmark never edits ``src/``: :meth:`Tracer.install` swaps each
entry point listed in :data:`SPANS` for a timing wrapper and
:meth:`Tracer.uninstall` puts the originals back.  Functions imported by
name into other modules (``from repro.nn import dumps_payload``) are
replaced wherever they are bound, so every caller goes through the
wrapper.

A span records calls, inclusive busy seconds and self seconds (busy
time minus the part covered by nested spans on the same thread), so a
layer that nests another (``env.step`` around ``reward.evaluate_batch``
around ``bumps.assign``) is not counted twice.

Pool workers forked while the tracer is installed inherit the wrappers.
Each worker starts from empty totals and, after every slice it
collects, writes its cumulative totals to ``spool_dir``; the parent
adds them into its own in :meth:`Tracer.totals`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

#: (span name, module, attribute path, what else to count).  The
#: attribute path is ``Class.method`` or a module-level function.  The
#: last field counts payload bytes (``"result"``/``"arg0"``) or, for a
#: serve batch, request-seconds (``"batch"``: batch size x duration).
SPANS = (
    ("agent.act_batch", "repro.agent.networks", "ActorCritic.act_batch", None),
    ("env.step", "repro.env.batched_env", "BatchedFloorplanEnv.step", None),
    ("reward.evaluate", "repro.reward.reward", "RewardCalculator.evaluate", None),
    ("reward.evaluate_batch", "repro.reward.reward", "RewardCalculator.evaluate_batch", None),
    ("reward.evaluate_many", "repro.reward.reward", "RewardCalculator.evaluate_many", None),
    ("bumps.assign", "repro.bumps.assign", "BumpAssigner.assign", None),
    ("thermal.characterize", "repro.thermal.characterize", "load_or_characterize", None),
    ("thermal.fast.evaluate_batch", "repro.thermal.fast_model", "FastThermalModel.evaluate_batch", None),
    ("thermal.fast.max_temperatures", "repro.thermal.fast_model", "FastThermalModel.max_temperatures", None),
    ("thermal.grid.evaluate", "repro.thermal.grid_solver", "GridThermalSolver.evaluate", None),
    ("thermal.grid.max_temperatures", "repro.thermal.grid_solver", "GridThermalSolver.max_temperatures", None),
    ("thermal.grid.factorize", "repro.thermal.grid_solver", "GridThermalSolver._factorize", None),
    ("rl.ppo_update", "repro.rl.ppo", "PPOUpdater.update", None),
    ("nn.adam_step", "repro.nn.optim", "Adam.step", None),
    ("nn.dumps_payload", "repro.nn.serialization", "dumps_payload", "result"),
    ("nn.loads_payload", "repro.nn.serialization", "loads_payload", "arg0"),
    ("parallel.collect", "repro.parallel.collector", "EpisodeCollector.collect", None),
    ("parallel.slice", "repro.parallel.collector", "_collect_remote", None),
    ("baselines.anneal", "repro.baselines.tap25d", "TAP25DPlacer.run", None),
    ("serve.evaluate", "repro.serve.engine", "ServeEngine.evaluate", None),
    ("serve.place", "repro.serve.engine", "ServeEngine.place", None),
    ("serve.compute", "repro.serve.engine", "ServeEngine._run_evaluate_batch", "batch"),
    ("store.fetch", "repro.store.runstore", "RunStore.fetch", None),
    ("store.put", "repro.store.runstore", "RunStore.put", None),
)

SPAN_NAMES = tuple(name for name, *_ in SPANS)
BYTE_COUNTERS = tuple(
    f"{name}.bytes" for name, *_, count in SPANS if count in ("result", "arg0")
)

#: Request-seconds of evaluate batches, for the serve queue wait.
SERVE_WEIGHTED = "serve.compute.request_s"

#: Span whose end in a pool worker flushes that worker's totals.
_WORKER_FLUSH_SPAN = "parallel.slice"


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for ``Class.method`` or ``function``."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """Thread-safe span totals with install/uninstall of the wrappers."""

    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []
        self._pid = os.getpid()
        self._worker_file = None  # set in forked pool workers only
        self._reset()

    def _reset(self) -> None:
        # name -> [calls, busy_s, self_s]
        self._spans = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self._counters = {name: 0 for name in BYTE_COUNTERS}
        self._counters[SERVE_WEIGHTED] = 0.0

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _check_fork(self) -> None:
        """A forked worker drops the totals it inherited from its parent."""
        if os.getpid() != self._pid:
            # pid plus start time: a later worker may reuse the pid.
            self._pid = os.getpid()
            self._worker_file = f"worker-{self._pid}-{time.monotonic_ns()}.json"
            self._lock = threading.Lock()
            self._local = threading.local()
            self._reset()

    def _record(self, name, elapsed, child, counter, amount) -> None:
        with self._lock:
            entry = self._spans[name]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - child
            if counter is not None:
                self._counters[counter] += amount

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._check_fork()
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
            counter = amount = None
            if count == "result":
                counter, amount = f"{name}.bytes", len(result)
            elif count == "arg0":
                counter, amount = f"{name}.bytes", len(args[0])
            elif count == "batch":  # (self, group_key, placements)
                counter, amount = SERVE_WEIGHTED, elapsed * len(args[2])
            tracer._record(name, elapsed, child, counter, amount)
            if name == _WORKER_FLUSH_SPAN and tracer._worker_file:
                tracer._flush_worker()
            return result

        return traced

    def _flush_worker(self) -> None:
        with self._lock:
            snapshot = {"spans": self._spans, "counters": self._counters}
            text = json.dumps(snapshot)
        path = self.spool_dir / self._worker_file
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)

    # -- install ---------------------------------------------------------

    def install(self) -> None:
        """Swap every entry point in :data:`SPANS` for its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        try:
            for name, module_name, path, count in SPANS:
                self._patch(name, module_name, path, count)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, name, module_name, path, count) -> None:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, count)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        # Rebind a module-level function wherever it was imported by name.
        for module in list(sys.modules.values()):
            if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reporting -------------------------------------------------------

    def totals(self) -> dict:
        """Spans and counters of this process plus every pool worker's."""
        with self._lock:
            spans = {name: list(entry) for name, entry in self._spans.items()}
            counters = dict(self._counters)
        for path in sorted(self.spool_dir.glob("worker-*.json")):
            worker = json.loads(path.read_text())
            for name, entry in worker["spans"].items():
                spans[name] = [a + b for a, b in zip(spans[name], entry)]
            for name, value in worker["counters"].items():
                counters[name] += value
        return {"spans": spans, "counters": counters}
