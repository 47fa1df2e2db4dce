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
    python scripts/run_experiments.py [--paper-scale] [--jobs 4] [--seed 0] \
        [--resume] [--keep-going] [--out bench_results]
"""

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from repro.cli import (
    _add_budget_args,
    _add_fault_args,
    _add_jobs_arg,
    _add_resume_args,
    _fault_kwargs,
    budget_from_args,
)
from repro.experiments import run_table2
from repro.experiments.report import save_results
from repro.experiments.table1 import TABLE1_SYSTEMS, run_table1
from repro.experiments.table3 import improvement_summary, run_table3
from repro.parallel import SweepReport
from repro.store import RunStore


def parse_args(argv=None):
    """``repro.cli``'s budget, jobs, resume and fault flags plus this
    script's own; only the budget defaults differ."""
    parser = argparse.ArgumentParser()
    _add_budget_args(parser)
    _add_jobs_arg(parser)
    _add_resume_args(parser)
    _add_fault_args(parser)
    parser.set_defaults(epochs=80, episodes=16, sa_iters=150)
    parser.add_argument("--out", type=str, default="bench_results")
    parser.add_argument("--t2-systems", type=int, default=500)
    parser.add_argument(
        "--positions",
        type=int,
        default=7,
        help="characterization position samples per axis (NxN solves "
        "per die size; smoke runs shrink this)",
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
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    report = SweepReport()
    fault_kwargs = dict(_fault_kwargs(args), report=report)
    budget = budget_from_args(
        args,
        position_samples=(args.positions, args.positions),
        sa_time_matched=not args.no_time_match,
        rl_checkpoint_every=args.rl_checkpoint_every,
        sa_checkpoint_every=args.sa_checkpoint_every,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    store = RunStore(args.store_dir) if args.resume else None
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
