"""Fast-model SA throughput: one chain vs lockstep multi-chain SA.

Measures cost-evaluations/sec of complete :class:`TAP25DPlacer` runs —
the ``TAP-2.5D*(FastThermal)`` arm's annealer — on a bundled benchmark
(``--system``, default ``multi_gpu``) for ``n_chains`` in {1, 4, 16}.
The evaluator is the one that arm uses: the spec's own
``reward_config`` (bump-assigned wirelength) over the fast thermal
model, built by ``repro.experiments.runner.build_evaluators``.  Every
count advances that many chains in lockstep with one batched
``RewardCalculator.evaluate_batch`` pass per step, so the one-chain leg
is the baseline the wider counts amortize against.  The HotSpot arm's
chains are measured by the perfbench workload ``sa_hotspot``.

Arms alternate inside each measurement round so slow machine phases
cannot bias one of them; the reported figure is the median across
rounds.  A machine-readable summary is written to
``BENCH_baselines.json`` after every run (smoke runs included).

Usage::

    PYTHONPATH=src python benchmarks/bench_baselines.py            # full
    PYTHONPATH=src python benchmarks/bench_baselines.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_baselines.py --strict   # exit 1 below target

Target (tracked in the README): n_chains=16 achieves >= 3x the
one-chain evaluations/sec.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.baselines import TAP25DConfig, TAP25DPlacer
from repro.experiments.runner import ExperimentBudget, build_evaluators
from repro.systems import benchmark_names, get_benchmark


def scenario(system: str, budget=ExperimentBudget(), cache_dir=None):
    """The bundled spec and the fast-model reward its Table I arms use."""
    spec = get_benchmark(system)
    return spec, build_evaluators(spec, budget, cache_dir)["reward_fast"]


def measure_window(system, calc, chains: int, iterations: int, seconds: float):
    """Evaluations/sec over one timed window of repeated placer runs."""
    evaluations = 0
    start = time.perf_counter()
    run_index = 0
    while True:
        placer = TAP25DPlacer(
            system,
            calc,
            TAP25DConfig(
                n_iterations=iterations, seed=run_index, n_chains=chains
            ),
        )
        evaluations += placer.run().n_evaluations
        run_index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return evaluations / elapsed


def run(args) -> int:
    spec, calc = scenario(args.system)
    system = spec.system
    widths = [int(w) for w in args.chains.split(",")]
    cpu_count = os.cpu_count() or 1
    print(
        f"scenario: {args.system} iterations/run={args.iterations} "
        f"on {cpu_count} cpu core(s)"
    )
    for width in widths:  # warm caches and code paths
        measure_window(system, calc, width, args.iterations, 0.05)

    samples: dict = {w: [] for w in widths}
    for round_index in range(args.rounds):
        for width in widths:
            rate = measure_window(
                system, calc, width, args.iterations, args.window_seconds
            )
            samples[width].append(rate)
            print(
                f"round {round_index}: n_chains={width:<3d} "
                f"{rate:8.1f} evals/s"
            )

    medians = {w: statistics.median(samples[w]) for w in widths}
    print()
    for width in widths:
        print(f"n_chains={width:<3d} median {medians[width]:8.1f} evals/s")
    speedups = {w: medians[w] / medians[widths[0]] for w in widths[1:]}
    status = 0
    for width, speedup in speedups.items():
        verdict = ""
        # The >=3x target is pinned to the widest arm (intermediate
        # chain counts amortize less and are reported informationally).
        if not args.smoke and width == widths[-1]:
            ok = speedup >= args.target
            verdict = "  [ok]" if ok else f"  [below {args.target:.1f}x target]"
            if not ok and args.strict:
                status = 1
        print(
            f"speedup n_chains={width} vs {widths[0]}: "
            f"{speedup:.2f}x{verdict}"
        )

    payload = {
        "benchmark": "bench_baselines",
        "mode": "smoke" if args.smoke else "full",
        "cpu_count": cpu_count,
        "scenario": {
            "system": args.system,
            "n_chiplets": system.n_chiplets,
            "iterations_per_run": args.iterations,
        },
        "rounds": args.rounds,
        "window_seconds": args.window_seconds,
        "evals_per_sec": {str(w): medians[w] for w in widths},
        "speedup_vs_one_chain": {str(w): s for w, s in speedups.items()},
        "target": args.target,
        "target_met": bool(speedups and speedups[widths[-1]] >= args.target),
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--system",
        choices=benchmark_names(),
        default="multi_gpu",
        help="bundled benchmark whose spec and reward config are measured",
    )
    parser.add_argument(
        "--chains",
        type=str,
        default="1,4,16",
        help="comma-separated chain counts; the first is the baseline",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=150,
        help="SA iterations per chain per run",
    )
    parser.add_argument("--rounds", type=int, default=5, help="alternating measurement rounds")
    parser.add_argument(
        "--window-seconds",
        type=float,
        default=2.0,
        help="minimum seconds per measurement window",
    )
    parser.add_argument(
        "--target", type=float, default=3.0, help="required speedup multiple"
    )
    parser.add_argument(
        "--out",
        type=str,
        default="BENCH_baselines.json",
        help="machine-readable result path",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when the widest chain count misses the target",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single fast round, no target check (CI)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.rounds = 1
        args.iterations = min(args.iterations, 5)
        args.window_seconds = min(args.window_seconds, 0.5)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
