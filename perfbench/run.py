"""Repository benchmark: four workloads on the default reward path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]

The first form runs one workload (see ``BENCHMARK.json``) in this
process.  ``--trace 0`` sets the workload up three times, runs units
of its work (arms, or blocks of requests) for about ``S`` seconds and
prints the end-to-end metrics.  Their times are scaled to the nominal
speed of a reference kernel sampled between setups and between units,
because the shared host's speed drifts by about 20% over minutes
(``reference.py``); the unscaled times are in the detail line.

* ``setup_s``: median time from start to the first operation;
* ``peak_rss_mb``: peak resident memory, plus the largest child's;
* ``ops_per_s``: training epochs (``rl_train``, ``rl_train_pool``),
  annealing evaluations (``sa_hotspot``) or requests of every kind
  (``serve_mixed``) per second;
* ``op_p50_ms``: median time per epoch, per lockstep annealing step, or
  per ``/v1/evaluate`` request.  No tail percentile: an arm workload
  times only two or three units in a run.

``--trace 1`` runs one unit of the same work untraced, then
again with spans around each layer's entry points, checks that both
runs agree bitwise, and prints the per-layer metrics.  Either way the
last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the line before it holds the exact
counts, the thread pins and versions, and the workload's own figures
(``train_epochs_per_s``, ``anneal_evals_per_s``, latencies per request
kind, ``best_reward``).

The second form runs every workload both ways, each in its own
process, prints every metric with its unit, writes them all to
``bench_results/perfbench.json`` and exits nonzero if any output check
failed.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: one BLAS/OpenMP thread per process, so the
# two-process pool workload stays within the host's cores.
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy  # noqa: E402
import scipy  # noqa: E402

from reference import Reference  # noqa: E402
from tracer import BYTE_COUNTERS, SERVE_WEIGHTED, SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Checks, merge  # noqa: E402

SETUP_REPEATS = 3

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
}

#: Exact counts from the program's own counters; zero where a workload
#: has none.
COUNT_KEYS = (
    "epochs",
    "deadlocks",
    "reward_evaluations",
    "anneal_evaluations",
    "factorizations",
    "requests_evaluate",
    "requests_place_hit",
    "requests_place_miss",
    "store_hits",
    "store_misses",
    "registry_builds",
)


def per_layer_units() -> dict:
    """name -> unit of every per-layer metric (``--trace 1``)."""
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.busy_s"] = "s"
        units[f"{span}.self_s"] = "s"
    for name in BYTE_COUNTERS:
        units[name] = "B"
    units["serve.batch_size_mean"] = "count"
    units["serve.queue_wait_ms"] = "ms"
    units["serve.compute_ms"] = "ms"
    units["store.hit_ratio"] = "ratio"
    units["trace_overhead_s"] = "s"
    for key in COUNT_KEYS:
        units[f"count.{key}"] = "count"
    return units


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment() -> dict:
    return {
        "thread_pins": THREAD_PINS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class _WarningCounter(logging.Handler):
    """Counts retried or degraded pool rounds, which the pool logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record) -> None:
        self.count += 1


def _counts(measured) -> dict:
    return {key: measured.counts.get(key, 0) for key in COUNT_KEYS}


def measure_units(workload, state, seconds: float, reference) -> tuple:
    """Units of work for about ``seconds``, with a reference sample before
    the first unit and after each one.  Returns the merged units and
    each unit's slowdown (the mean of the samples on either side)."""
    parts, slowdowns = [], []
    elapsed = 0.0
    before = reference.sample()
    # Stop before a unit that would end past ``seconds``, so the number
    # of units does not flip between runs near the boundary.
    while not parts or elapsed * (len(parts) + 1) / len(parts) <= seconds:
        part = workload.unit(state)
        after = reference.sample()
        parts.append(part)
        slowdowns.append(Reference.slowdown(before, after))
        elapsed += part.elapsed_s
        before = after
    return parts, slowdowns


def run_untraced(name: str, seed: int, seconds: float, work: Path, checks):
    """Every time is scaled to the reference kernel's nominal speed by
    the kernel samples on either side of it (see ``reference.py``)."""
    workload = WORKLOADS[name](seed)
    reference = Reference(workload.across_cpus)
    setup_s, setup_slowdowns = [], []
    before = reference.sample()
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(work / f"setup{repeat}")
        setup_s.append(time.perf_counter() - start)
        if repeat < SETUP_REPEATS - 1:
            workload.close(state)
        after = reference.sample()
        setup_slowdowns.append(Reference.slowdown(before, after))
        before = after
    try:
        workload.warm_up(state)
        parts, slowdowns = measure_units(workload, state, seconds, reference)
        measured = merge(parts)
        workload.check(state, measured, checks)
    finally:
        workload.close(state)
    scaled_s = sum(p.elapsed_s / f for p, f in zip(parts, slowdowns))
    op_ms = [ms / f for p, f in zip(parts, slowdowns) for ms in p.op_ms]
    metrics = {
        "setup_s": statistics.median(
            s / f for s, f in zip(setup_s, setup_slowdowns)
        ),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": measured.ops / scaled_s,
        "op_p50_ms": percentile(op_ms, 50),
    }
    detail = {
        "setup_s_each": setup_s,
        "measured_s": measured.elapsed_s,
        "units": len(parts),
        "ops": measured.ops,
        "op_samples": len(measured.op_ms),
        "unscaled": {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": measured.ops / measured.elapsed_s,
            "op_p50_ms": percentile(measured.op_ms, 50),
        },
        "reference_s": reference.samples,
        "slowdowns": {"setup": setup_slowdowns, "units": slowdowns},
        **measured.detail,
    }
    # Request latencies by kind, scaled like the metrics.
    if "latencies" in measured.detail:
        detail["latencies"] = {
            key: [ms / f for p, f in zip(parts, slowdowns)
                  for ms in p.detail["latencies"][key]]
            for key in measured.detail["latencies"]
        }
    return measured, metrics, detail


def _operation_totals(at_setup: dict, total: dict) -> tuple:
    """(spans, counters) of the fixed operations alone.  Characterization
    runs only during setup, so its span reports the setup instead."""
    spans = {
        name: [t - s for t, s in zip(entry, at_setup["spans"][name])]
        for name, entry in total["spans"].items()
    }
    spans["thermal.characterize"] = at_setup["spans"]["thermal.characterize"]
    counters = {
        name: value - at_setup["counters"][name]
        for name, value in total["counters"].items()
    }
    return spans, counters


def run_traced(name: str, seed: int, work: Path, checks):
    workload = WORKLOADS[name](seed)
    start = time.perf_counter()
    state = workload.setup(work / "untraced")
    try:
        plain_s = time.perf_counter() - start
        workload.warm_up(state)
        start = time.perf_counter()
        plain = workload.unit(state)
        plain_s += time.perf_counter() - start
    finally:
        workload.close(state)

    # The process is warm now, so the traced run needs no warm-up and
    # both runs time the same work: a cold-cache setup plus the fixed
    # operations.
    tracer = Tracer(work / "spool")
    start = time.perf_counter()
    with tracer:
        state = workload.setup(work / "traced")
        try:
            at_setup = tracer.totals()
            traced = workload.unit(state)
        except BaseException:
            workload.close(state)
            raise
    traced_s = time.perf_counter() - start
    try:
        workload.check(state, traced, checks)
    finally:
        workload.close(state)
    checks.expect(
        plain.best_reward == traced.best_reward,
        "traced best_reward differs from untraced",
    )
    checks.expect(
        plain.counts == traced.counts, "traced counts differ from untraced"
    )

    spans, counters = _operation_totals(at_setup, tracer.totals())
    metrics = {}
    for span, (calls, busy, own) in spans.items():
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.busy_s"] = busy
        metrics[f"{span}.self_s"] = own
    for counter in BYTE_COUNTERS:
        metrics[counter] = counters[counter]
    evaluates = spans["serve.evaluate"][0]
    batches = spans["serve.compute"][0]
    metrics["serve.batch_size_mean"] = evaluates / batches if batches else 0.0
    metrics["serve.queue_wait_ms"] = (
        1000.0 * (spans["serve.evaluate"][1] - counters[SERVE_WEIGHTED]) / evaluates
        if evaluates
        else 0.0
    )
    metrics["serve.compute_ms"] = (
        1000.0 * spans["serve.compute"][1] / batches if batches else 0.0
    )
    counts = _counts(traced)
    fetches = counts["store_hits"] + counts["store_misses"]
    metrics["store.hit_ratio"] = counts["store_hits"] / fetches if fetches else 0.0
    metrics["trace_overhead_s"] = traced_s - plain_s
    for key, value in counts.items():
        metrics[f"count.{key}"] = value
    detail = {"untraced_s": plain_s, "traced_s": traced_s}
    return traced, metrics, detail


def named_figures(name: str, measured, metrics: dict, detail: dict) -> dict:
    """The workload's own figures under their domain names, scaled like
    the metrics."""
    if name.startswith("rl_train"):
        return {
            "train_epochs_per_s": metrics["ops_per_s"],
            "best_reward": measured.best_reward,
        }
    if name == "sa_hotspot":
        return {
            "anneal_evals_per_s": metrics["ops_per_s"],
            "anneal_step_p50_ms": metrics["op_p50_ms"],
            "best_reward": measured.best_reward,
        }
    latencies = detail["latencies"]
    figures = {"requests_per_s": metrics["ops_per_s"]}
    for kind, label in (("evaluate", "evaluate"), ("hit", "place_hit"), ("miss", "place_miss")):
        samples = latencies[f"{kind}_ms"]
        if samples:
            figures[f"{label}_p50_ms"] = percentile(samples, 50)
            figures[f"{label}_p90_ms"] = percentile(samples, 90)
        figures[f"{label}_samples"] = len(samples)
    return figures


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    warnings = _WarningCounter()
    pool_logger = logging.getLogger("repro.parallel")
    pool_logger.addHandler(warnings)
    checks = Checks()
    try:
        if trace:
            measured, metrics, detail = run_traced(name, seed, work, checks)
            units = per_layer_units()
        else:
            measured, metrics, detail = run_untraced(name, seed, seconds, work, checks)
            units = END_TO_END
            detail["named"] = named_figures(name, measured, metrics, detail)
    finally:
        pool_logger.removeHandler(warnings)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    failed = measured.failed_ops + len(checks.failures) + warnings.count
    detail.update(
        workload=name,
        seed=seed,
        trace=trace,
        best_reward=measured.best_reward,
        counts=_counts(measured),
        checks_run=checks.attempted,
        checks_failed=checks.failures,
        pool_warnings=warnings.count,
        environment=environment(),
    )
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            # Arms or requests, output checks, and pool rounds retried.
            "attempted": len(measured.outputs) + checks.attempted + warnings.count,
            "failed": failed,
            "metrics": {
                key: {"value": metrics[key], "unit": unit}
                for key, unit in units.items()
            },
        },
    }


def print_metrics(name: str, trace: int, result: dict) -> None:
    for key, metric in result["metrics"].items():
        print(f"{name} trace={trace} {key} = {metric['value']:.6g} {metric['unit']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    report = {}
    failed = False
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                failed = True
                continue
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            report[f"{name}/trace{trace}"] = {"detail": detail, "result": result}
            print_metrics(name, trace, result)
            for figure, value in detail.get("named", {}).items():
                print(f"{name} {figure} = {value}")
            for failure in detail["checks_failed"]:
                print(f"{name} trace={trace} CHECK FAILED: {failure}")
            failed |= not result["correct"]
    train = report.get("rl_train/trace0")
    pool = report.get("rl_train_pool/trace0")
    if train and pool:
        same = train["detail"]["best_reward"] == pool["detail"]["best_reward"]
        print(f"rl_train_pool best_reward equals rl_train: {same}")
        failed |= not same
    out = ROOT / "bench_results" / "perfbench.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    outcome = run_one(args.workload, args.seed, args.seconds, args.trace)
    print_metrics(args.workload, args.trace, outcome["result"])
    print(json.dumps(outcome["detail"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
