"""Regenerate every paper table and dump JSON artifacts.

This is the script behind the numbers in EXPERIMENTS.md.  Budgets are
chosen to finish in tens of minutes on one CPU; pass ``--paper-scale``
for the full regime and ``--jobs N`` to fan the independent
(benchmark x method) arms and Table II dataset shards over N worker
processes (results are identical at any ``--jobs``; only the wall
clock changes).

Pass ``--resume`` to make the sweep durable: every (benchmark x
method) arm and Table II shard publishes its result to the
content-addressed run store, so a re-run after an interruption skips
finished work and restarts in-flight arms from their latest checkpoint
— with results bitwise identical to an uninterrupted run.

Fault tolerance: transiently failing jobs (dead workers, OS errors)
retry automatically (``--retries``), stragglers past ``--job-timeout``
are killed and retried, and ``--keep-going`` quarantines permanently
failing arms instead of aborting — every independent arm still runs
and publishes, the per-job triage lands in ``<out>/report.json``, and
the script exits nonzero on a partial sweep.

Usage:
    python scripts/run_experiments.py [--paper-scale] [--jobs 4] \
        [--resume] [--keep-going] [--out bench_results]
"""

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from repro.cli import rollout_width
from repro.experiments import run_table2
from repro.experiments.report import save_results
from repro.experiments.runner import ExperimentBudget
from repro.experiments.table1 import TABLE1_SYSTEMS, run_table1
from repro.experiments.table3 import improvement_summary, run_table3
from repro.parallel import (
    RetryPolicy,
    SweepReport,
    resolve_collect_jobs,
    resolve_jobs,
)
from repro.store import DEFAULT_STORE_DIR, RunStore


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--paper-scale", action="store_true")
    parser.add_argument("--out", type=str, default="bench_results")
    parser.add_argument("--t2-systems", type=int, default=500)
    parser.add_argument("--epochs", type=int, default=80)
    parser.add_argument("--episodes", type=int, default=16)
    parser.add_argument("--grid", type=int, default=24)
    parser.add_argument("--sa-iters", type=int, default=150)
    parser.add_argument(
        "--batch-size",
        type=rollout_width,
        default=16,
        help="rollout batch width for RL collection (lockstep waves, "
        ">= 2)",
    )
    parser.add_argument(
        "--collect-jobs",
        type=resolve_collect_jobs,
        default=1,
        help="worker processes for episode collection within each RL "
        "arm ('auto' = available CPUs, in-process with a warning on "
        "single-CPU hosts); bitwise identical at any count",
    )
    parser.add_argument(
        "--collect-workers",
        type=int,
        default=0,
        help="remote (multi-machine) episode collection per RL arm: "
        "open a lease-based TCP coordinator serving wave-aligned "
        "slices to scripts/collect_worker.py processes (0 = off); "
        "bitwise identical at any count, degrades to --collect-jobs "
        "then in-process",
    )
    parser.add_argument(
        "--collect-bind",
        default="127.0.0.1:0",
        help="host:port the collection coordinator binds (port 0 = "
        "ephemeral); use 0.0.0.0:<port> for workers on other machines",
    )
    parser.add_argument(
        "--async-collect",
        action="store_true",
        help="pipeline collection with PPO updates (one-epoch policy "
        "staleness; reproducible at a fixed seed, not bitwise-equal "
        "to the lockstep schedule)",
    )
    parser.add_argument(
        "--sa-chains",
        type=int,
        default=16,
        help="lockstep chains for both SA baselines (best-of-N; the "
        "HotSpot arm batches all chains through one factorization per "
        "step)",
    )
    parser.add_argument(
        "--positions",
        type=int,
        default=7,
        help="characterization position samples per axis (NxN solves "
        "per die size; smoke runs shrink this)",
    )
    parser.add_argument(
        "--jobs",
        type=resolve_jobs,
        default=1,
        metavar="N|auto",
        help="worker processes for the experiment scheduler; 1 is the "
        "bit-exact sequential path, N>1 fans independent arms / "
        "dataset shards over a pool (identical results, less wall "
        "clock on multi-core hosts); 'auto' uses the CPUs available "
        "to this process",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="publish every arm/shard to the run store and skip work "
        "already published there; interrupted arms restart from their "
        "latest checkpoint (results bitwise identical either way)",
    )
    parser.add_argument(
        "--store-dir",
        type=str,
        default=str(DEFAULT_STORE_DIR),
        help=f"run-store root used by --resume (default {DEFAULT_STORE_DIR})",
    )
    parser.add_argument(
        "--no-time-match",
        action="store_true",
        help="run the TAP-2.5D* arm without the wall-clock match to RL "
        "training; results then depend only on seeds, which is what the "
        "interrupt-and-resume smoke compares bitwise",
    )
    parser.add_argument(
        "--rl-checkpoint-every",
        type=int,
        default=5,
        help="with --resume: trainer checkpoint cadence in epochs",
    )
    parser.add_argument(
        "--sa-checkpoint-every",
        type=int,
        default=50,
        help="with --resume: annealer checkpoint cadence in SA iterations",
    )
    parser.add_argument(
        "--t1-systems",
        nargs="*",
        default=list(TABLE1_SYSTEMS),
        help="Table I benchmark subset (smoke runs shrink this)",
    )
    parser.add_argument(
        "--t3-cases",
        nargs="*",
        type=int,
        default=[1, 2, 3, 4, 5],
        help="Table III synthetic-case subset",
    )
    parser.add_argument(
        "--skip", nargs="*", default=[], choices=["table1", "table2", "table3"]
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="K",
        help="retry transiently failed jobs (dead worker, OS error, "
        "timeout) up to K times on fresh workers with seeded-jitter "
        "backoff (default: 2, 0 disables)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget; stragglers past it are killed "
        "and retried as transient failures (needs --jobs >= 2)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="quarantine permanently failing arms instead of aborting: "
        "independent arms complete (and publish under --resume), "
        "<out>/report.json records the triage, exit code is nonzero",
    )
    return parser.parse_args(argv)


def build_budget(args) -> ExperimentBudget:
    if args.paper_scale:
        return ExperimentBudget.paper_scale()
    return ExperimentBudget(
        rl_epochs=args.epochs,
        episodes_per_epoch=args.episodes,
        grid_size=args.grid,
        sa_iterations_hotspot=args.sa_iters,
        rollout_batch_size=args.batch_size,
        collect_jobs=args.collect_jobs,
        collect_workers=args.collect_workers,
        collect_bind=args.collect_bind,
        async_collect=args.async_collect,
        sa_chains=args.sa_chains,
        position_samples=(args.positions, args.positions),
        sa_time_matched=not args.no_time_match,
        rl_checkpoint_every=args.rl_checkpoint_every,
        sa_checkpoint_every=args.sa_checkpoint_every,
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    budget = build_budget(args)
    store = RunStore(args.store_dir) if args.resume else None
    report = SweepReport()
    fault_kwargs = dict(
        policy=RetryPolicy(max_attempts=args.retries + 1),
        job_timeout=args.job_timeout,
        keep_going=args.keep_going,
        report=report,
    )
    print(f"budget: {budget}")
    print(f"jobs: {args.jobs}")
    if store is not None:
        print(f"run store: {store.root} (resume enabled)")
    started = time.time()

    if "table2" not in args.skip:
        print("\n=== Table II ===")
        t2 = run_table2(
            n_systems=args.t2_systems,
            position_samples=budget.position_samples,
            jobs=args.jobs,
            store=store,
            **fault_kwargs,
        )
        print(t2.format())
        (out / "table2.json").write_text(
            json.dumps(
                {
                    "metrics": t2.metrics,
                    "speedup": t2.speedup,
                    "solver_ms": t2.solver_time_per_eval * 1e3,
                    "fast_ms": t2.fast_time_per_eval * 1e3,
                    "characterization_s": t2.characterization_time,
                    "n_systems": t2.n_systems,
                    "jobs": args.jobs,
                },
                indent=2,
            )
        )

    all_results = []
    if "table1" not in args.skip:
        print("\n=== Table I ===")
        all_results = run_table1(
            budget,
            systems=tuple(args.t1_systems),
            jobs=args.jobs,
            store=store,
            **fault_kwargs,
        )
        by_system = {}
        for res in all_results:
            by_system.setdefault(res.system, []).append(res)
        for name, results in by_system.items():
            save_results(
                results, out / f"table1_{name}.json", {"budget": asdict(budget)}
            )

    table3_results = []
    if "table3" not in args.skip:
        print("\n=== Table III ===")
        table3_results = run_table3(
            budget,
            cases=tuple(args.t3_cases),
            jobs=args.jobs,
            store=store,
            **fault_kwargs,
        )
        save_results(
            table3_results, out / "table3.json", {"budget": asdict(budget)}
        )

    combined = all_results + table3_results
    if combined:
        summary = improvement_summary(combined)
        print("\n=== Aggregate (all cases) ===")
        print(
            f"RLPlanner(RND) vs TAP-2.5D(HotSpot):      "
            f"{summary['rnd_vs_hotspot_pct']:+.2f}%   (paper +20.28%)"
        )
        print(
            f"RLPlanner(RND) vs TAP-2.5D*(FastThermal): "
            f"{summary['rnd_vs_fast_pct']:+.2f}%   (paper +9.25%)"
        )
        (out / "summary.json").write_text(json.dumps(summary, indent=2))

    print(f"\ntotal wall time: {(time.time() - started) / 60:.1f} min")

    (out / "report.json").write_text(json.dumps(report.to_dict(), indent=2))
    if not report.ok:
        print("\n=== PARTIAL SWEEP ===", file=sys.stderr)
        print(report.summary(), file=sys.stderr)
        return 1
    if report.retried:
        print(report.summary(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
