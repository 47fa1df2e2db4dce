"""Command-line interface: ``rlplanner <subcommand>``.

Subcommands map one-to-one onto the experiment harness:

* ``table1`` / ``table2`` / ``table3`` / ``ablations`` — regenerate a
  paper table at a chosen budget scale
* ``train`` — train RLPlanner on one benchmark and print the floorplan
* ``sa`` — run the TAP-2.5D baseline on one benchmark
* ``serve`` — run the persistent floorplanning service (warm
  evaluators, micro-batched requests, run-store memoization)
* ``submit`` — send one placement request to a running service; a
  served result is bitwise identical to the same (benchmark, method,
  budget) run locally through ``train``/``sa``

``--jobs N`` (or ``--jobs auto``) fans independent work over a process
pool; ``--resume`` makes sweeps durable through the content-addressed
run store (completed arms are skipped, interrupted arms restart from
their latest checkpoint — bitwise identical to an uninterrupted run).

Fault tolerance: ``--retries`` retries transiently failing jobs (dead
workers, OS errors, timeouts) on fresh workers with seeded-jitter
backoff, ``--job-timeout`` kills and retries stragglers, and
``--keep-going`` quarantines permanently failing arms — completing
every independent arm, printing the sweep report, and exiting nonzero.
"""

from __future__ import annotations

import argparse
import sys

from repro.blas import apply_thread_policy

apply_thread_policy()  # before numpy loads; see repro.blas

from repro.experiments import (  # noqa: E402
    ExperimentBudget,
    run_ablations,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.report import format_table, save_results  # noqa: E402
from repro.experiments.runner import run_all_methods  # noqa: E402
from repro.parallel import (  # noqa: E402
    RetryPolicy,
    SweepReport,
    resolve_collect_jobs,
    resolve_jobs,
)
from repro.store import DEFAULT_STORE_DIR, RunStore  # noqa: E402
from repro.systems import benchmark_names, get_benchmark  # noqa: E402

__all__ = ["budget_from_args", "main"]


def budget_from_args(args, **extra_fields) -> ExperimentBudget:
    """The budget a parsed :func:`_add_budget_args` command line asks for.

    ``extra_fields`` fill budget fields an entry point has its own flags
    for.  ``--paper-scale`` sets only the paper's budgets
    (:meth:`ExperimentBudget.paper_scale`); every other flag still
    applies.  A budget the dataclass rejects exits with its message, as
    ``--retries -1`` does.
    """
    fields = dict(
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
        seed=args.seed,
        **extra_fields,
    )
    build = (
        ExperimentBudget.paper_scale if args.paper_scale else ExperimentBudget
    )
    try:
        return build(**fields)
    except ValueError as error:
        raise SystemExit(f"invalid budget: {error}") from None


def _add_budget_args(parser) -> None:
    """The budget flags of ``rlplanner`` and ``scripts/run_experiments.py``.

    :func:`budget_from_args` reads them back; an entry point changes a
    default with ``parser.set_defaults``.
    """
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--episodes", type=int, default=8)
    parser.add_argument("--grid", type=int, default=24)
    parser.add_argument("--sa-iters", type=int, default=250)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--batch-size",
        type=int,
        default=16,
        help="rollout batch width for RL collection: episodes step in "
        "lockstep waves of this many (>= 2)",
    )
    parser.add_argument(
        "--collect-jobs",
        type=resolve_collect_jobs,
        default=1,
        help="worker processes for RL episode collection within one "
        "training run ('auto' = available CPUs, falling back to "
        "in-process with a warning on single-CPU hosts); bitwise "
        "identical to 1 at any count",
    )
    parser.add_argument(
        "--collect-workers",
        type=int,
        default=0,
        help="remote (multi-machine) episode collection: open a "
        "lease-based TCP coordinator and cut each epoch into this many "
        "(or --collect-jobs, if larger) balanced slices served by scripts/collect_worker.py "
        "processes (0 = off); bitwise identical to in-process at any "
        "count, degrades to --collect-jobs then in-process when no "
        "workers are reachable",
    )
    parser.add_argument(
        "--collect-bind",
        default="127.0.0.1:0",
        help="host:port the collection coordinator binds (port 0 = "
        "ephemeral); use 0.0.0.0:<port> to accept workers from other "
        "machines",
    )
    parser.add_argument(
        "--async-collect",
        action="store_true",
        help="pipeline episode collection with PPO updates: epoch k+1 "
        "is collected with the pre-update epoch-k policy while the "
        "learner runs update k (one-epoch staleness; reproducible at "
        "a fixed seed, but not bitwise-equal to the default lockstep "
        "schedule)",
    )
    parser.add_argument(
        "--sa-chains",
        type=int,
        default=16,
        help="lockstep annealing chains for both SA baselines "
        "(best-of-N; the HotSpot arm solves all chains through one "
        "factorization per step)",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's epoch, episode, grid and SA-iteration "
        "budgets (hours of CPU time); the other flags still apply",
    )


def _add_jobs_arg(parser) -> None:
    # Only on the subcommands that actually fan work over a pool
    # (table1/table3/ablation arms, table2 shards) — single-arm
    # commands would silently ignore it.
    parser.add_argument(
        "--jobs",
        type=resolve_jobs,
        default=1,
        metavar="N|auto",
        help="worker processes for the experiment scheduler (1 = the "
        "bit-exact sequential path; N fans independent arms over a "
        "pool; 'auto' = the CPUs available to this process)",
    )


def _add_resume_args(parser) -> None:
    parser.add_argument(
        "--resume",
        action="store_true",
        help="make the sweep durable through the run store: completed "
        "arms are skipped, interrupted arms restart from their latest "
        "checkpoint with bitwise-identical results (wall-clock-limited "
        "arms — the time-matched TAP-2.5D* — are result-cached only "
        "and restart from scratch if interrupted)",
    )
    parser.add_argument(
        "--store-dir",
        type=str,
        default=str(DEFAULT_STORE_DIR),
        help="run-store root used by --resume "
        f"(default: {DEFAULT_STORE_DIR})",
    )


def _add_fault_args(parser) -> None:
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="K",
        help="retry a transiently failed job (dead worker, OS error, "
        "timeout) up to K times on a fresh worker with exponential "
        "seeded-jitter backoff; deterministic failures never retry "
        "(default: 2, 0 disables)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per job; a straggler past it is killed "
        "and retried as a transient failure (needs --jobs >= 2; "
        "default: no timeout)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="quarantine permanently failing jobs instead of aborting "
        "the sweep: only their dependency-downstream jobs are skipped, "
        "every independent job completes (and publishes under "
        "--resume), the sweep report is printed, and the exit code is "
        "nonzero",
    )


def _fault_kwargs(args) -> dict:
    if args.retries < 0:
        raise SystemExit("--retries must be >= 0")
    if args.job_timeout is not None and not args.job_timeout > 0:
        raise SystemExit("--job-timeout must be > 0")
    return dict(
        policy=RetryPolicy(max_attempts=args.retries + 1),
        job_timeout=args.job_timeout,
        keep_going=args.keep_going,
    )


def _finish_report(report: SweepReport) -> int:
    """Print the triage when anything went wrong; map it to an exit code."""
    if not report.ok:
        print(report.summary(), file=sys.stderr)
        return 1
    if report.retried:
        print(report.summary(), file=sys.stderr)
    return 0


def _store_from_args(args) -> RunStore | None:
    return RunStore(args.store_dir) if args.resume else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rlplanner",
        description="RLPlanner reproduction (DATE 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    budget_parsers = []
    for table in ("table1", "table3", "ablations"):
        p = sub.add_parser(table, help=f"regenerate {table}")
        _add_jobs_arg(p)
        _add_resume_args(p)
        _add_fault_args(p)
        budget_parsers.append(p)

    p2 = sub.add_parser("table2", help="fast thermal model accuracy/speed")
    p2.add_argument("--systems", type=int, default=300)
    p2.add_argument("--seed", type=int, default=7)
    _add_jobs_arg(p2)
    _add_resume_args(p2)
    _add_fault_args(p2)
    p2.add_argument("--output", type=str, default=None)

    pt = sub.add_parser("train", help="train RLPlanner on one benchmark")
    pt.add_argument("benchmark", choices=benchmark_names())
    pt.add_argument("--rnd", action="store_true", help="enable the RND bonus")

    ps = sub.add_parser("sa", help="run the TAP-2.5D baseline")
    ps.add_argument("benchmark", choices=benchmark_names())
    ps.add_argument(
        "--thermal",
        choices=("fast", "hotspot"),
        default="hotspot",
        help="thermal evaluator inside the annealer",
    )

    pv = sub.add_parser(
        "serve", help="run the persistent floorplanning service"
    )
    pv.add_argument("--host", default="127.0.0.1")
    pv.add_argument("--port", type=int, default=8337)
    pv.add_argument(
        "--store-dir",
        type=str,
        default=str(DEFAULT_STORE_DIR),
        help="run-store root for whole-request memoization "
        f"(default: {DEFAULT_STORE_DIR}); identical (system, method, "
        "budget) requests are answered from the store with zero compute",
    )
    pv.add_argument(
        "--no-store",
        action="store_true",
        help="disable request memoization (warm caches stay on)",
    )
    pv.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="thermal characterization cache dir (default: the "
        "harness-wide .cache/thermal_tables)",
    )
    pv.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="micro-batch window: how long a request holds its batch "
        "open for concurrent companions before computing (default 2ms)",
    )
    pv.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="cap on coalesced requests per batched evaluator call",
    )

    pb = sub.add_parser(
        "submit", help="submit one placement request to a running service"
    )
    pb.add_argument("benchmark", choices=benchmark_names())
    pb.add_argument(
        "--url",
        default="http://127.0.0.1:8337",
        help="base URL of a 'rlplanner serve' instance",
    )
    pb.add_argument(
        "--method",
        choices=(
            "RLPlanner",
            "RLPlanner(RND)",
            "TAP-2.5D(HotSpot)",
            "TAP-2.5D*(FastThermal)",
        ),
        default="TAP-2.5D*(FastThermal)",
    )

    for p in (*budget_parsers, pt, ps, pb):
        _add_budget_args(p)
        p.add_argument(
            "--hotspot-reuse-lu",
            dest="hotspot_reuse_lu",
            action="store_true",
            help="experiment mode: keep the HotSpot arm's splu "
            "factorization alive across SA steps (drops the per-step "
            "'run the HotSpot binary' cost parity)",
        )
        p.add_argument(
            "--output", type=str, default=None, help="JSON output path"
        )

    args = parser.parse_args(argv)
    report = SweepReport()
    budget = None
    if args.command not in ("table2", "serve"):
        budget = budget_from_args(
            args, hotspot_reuse_factorization=args.hotspot_reuse_lu
        )

    if args.command in ("table1", "table3", "ablations"):
        run = {
            "table1": run_table1,
            "table3": run_table3,
            "ablations": run_ablations,
        }[args.command]
        results = run(
            budget,
            jobs=args.jobs,
            store=_store_from_args(args),
            report=report,
            **_fault_kwargs(args),
        )
    elif args.command == "table2":
        table2 = run_table2(
            n_systems=args.systems,
            seed=args.seed,
            jobs=args.jobs,
            store=_store_from_args(args),
            report=report,
            **_fault_kwargs(args),
        )
        print(table2.format())
        if args.output:
            import json
            from pathlib import Path

            Path(args.output).write_text(
                json.dumps(
                    {
                        "metrics": table2.metrics,
                        "speedup": table2.speedup,
                        "n_systems": table2.n_systems,
                    },
                    indent=2,
                )
            )
        return _finish_report(report)
    elif args.command == "train":
        spec = get_benchmark(args.benchmark)
        method = "RLPlanner(RND)" if args.rnd else "RLPlanner"
        results = run_all_methods(spec, budget, methods=(method,))
        print(format_table(results))
        return 0
    elif args.command == "sa":
        spec = get_benchmark(args.benchmark)
        method = (
            "TAP-2.5D(HotSpot)"
            if args.thermal == "hotspot"
            else "TAP-2.5D*(FastThermal)"
        )
        results = run_all_methods(spec, budget, methods=(method,))
        print(format_table(results))
        return 0
    elif args.command == "serve":
        from repro.serve import serve_forever

        serve_forever(
            args.host,
            args.port,
            store_dir=None if args.no_store else args.store_dir,
            cache_dir=args.cache_dir,
            window_s=args.batch_window_ms / 1000.0,
            max_batch=args.max_batch,
        )
        return 0
    elif args.command == "submit":
        from repro.serve import ServeClient
        from repro.serve.schema import budget_to_dict

        client = ServeClient(args.url)
        response = client.place(
            args.benchmark,
            args.method,
            budget_to_dict(budget),
        )
        result = response["result"]
        print(
            f"{result['system']}  {result['method']}  "
            f"reward={result['reward']!r}  "
            f"wirelength={result['wirelength']!r}mm  "
            f"T={result['temperature_c']!r}C  "
            f"cache={response['cache']}  "
            f"evaluator_calls={response['evaluator_calls']}"
        )
        if getattr(args, "output", None):
            import json
            from pathlib import Path

            Path(args.output).write_text(json.dumps(response, indent=2))
        return 0
    else:  # pragma: no cover - argparse guards this
        parser.error(f"unknown command {args.command}")

    if getattr(args, "output", None):
        save_results(results, args.output)
    return _finish_report(report)


if __name__ == "__main__":
    sys.exit(main())
