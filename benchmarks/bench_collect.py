"""Distributed episode-collection throughput: 1 vs 2 vs 4 workers.

Times ``RLPlannerTrainer.collect_episodes`` on the default synthetic
system at ``collect_jobs`` 1 (in-process), 2 and 4 (persistent worker
pool), reporting median episodes/sec over alternating measurement
windows so single-core frequency noise cannot bias one arm.  Collection
results are bitwise identical across all worker counts (pinned by
``tests/test_collector.py``), so the measured quantity is pure
wall-clock: per-epoch weight broadcast + slice fan-out vs one process
doing all the forward passes itself.

A machine-readable summary is written to ``BENCH_trainer.json`` after
every run (including smoke runs), with the host's CPU count recorded
alongside the measured speedups: the >=2x target at ``collect_jobs=4``
is only physically reachable on >=4 cores, so ``--strict`` enforces it
only where the hardware allows (same policy as the other benches, which
CI runs in smoke mode and developers enforce locally).

Usage::

    PYTHONPATH=src python benchmarks/bench_collect.py            # full
    PYTHONPATH=src python benchmarks/bench_collect.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_collect.py --strict   # enforce

Target (tracked in the README): ``collect_jobs=4`` collects >= 2x the
episodes/sec of in-process collection on a >=4-core host.

The **broadcast leg** records what one epoch's policy broadcast costs:
the payload bytes, the trainer's encode (``dumps_payload`` of its state
dict, once per epoch) and a worker's decode (``loads_payload``, once
per worker per epoch), medians over repeated runs.

The **async leg** additionally times full ``train()`` runs — update
compute included — lockstep vs ``async_collect`` at the same worker
count, recording the actor/learner overlap speedup (epochs/sec).  Its
>=1.3x target presumes a spare core for the learner while workers
collect, so it too is enforced only on >=4-core hosts; smaller hosts
still measure and record the (honest, possibly <1x) number.

The **remote leg** measures the lease-based TCP path
(``collect_workers=2`` with two ``scripts/collect_worker.py``
subprocesses on localhost) against the same-width local pool
(``collect_jobs=2``).  Both collect bitwise-identical episodes, so the
ratio is the pure transport tax: framing + checksums + heartbeats +
weight broadcast over a socket instead of a pipe.  The >=0.75x budget
("remote loses at most 25% on loopback") is enforced only on >=4-core
hosts, where the worker subprocesses do not fight the coordinator for
cycles.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.nn import dumps_payload, loads_payload
from repro.parallel.collector import POLICY_PAYLOAD_KIND
from repro.reward import RewardCalculator, RewardConfig
from repro.rl import PPOConfig
from repro.systems import synthetic_system
from repro.thermal import FastThermalModel, ThermalConfig
from repro.thermal.characterize import load_or_characterize

DEFAULT_CACHE_DIR = ".cache/thermal_tables"
REPO_ROOT = Path(__file__).resolve().parent.parent


def build_env(grid_size: int, system_seed: int) -> BatchedFloorplanEnv:
    """The benchmark scenario: one synthetic system + fast thermal model."""
    system = synthetic_system(seed=system_seed)
    config = ThermalConfig()
    sizes = []
    for chiplet in system.chiplets:
        sizes.append((chiplet.width, chiplet.height))
        if chiplet.rotatable:
            sizes.append((chiplet.height, chiplet.width))
    tables = load_or_characterize(
        system.interposer,
        sizes,
        config,
        position_samples=(5, 5),
        cache_dir=DEFAULT_CACHE_DIR,
    )
    calc = RewardCalculator(
        FastThermalModel(tables, config),
        RewardConfig(use_bump_assignment=False),
    )
    return BatchedFloorplanEnv(system, calc, EnvConfig(grid_size=grid_size))


def make_trainer(
    env: BatchedFloorplanEnv, batch_size: int, collect_jobs: int, seed: int
) -> RLPlannerTrainer:
    return RLPlannerTrainer(
        env,
        TrainerConfig(
            epochs=1,
            episodes_per_epoch=16,
            batch_size=batch_size,
            collect_jobs=collect_jobs,
            seed=seed,
            log_every=0,
            ppo=PPOConfig(),
        ),
    )


def measure_window(
    trainer: RLPlannerTrainer, episodes: int, seconds: float
) -> float:
    """Episodes/sec over one timed window of repeated collections."""
    collected = 0
    start = time.perf_counter()
    while True:
        trainer.collect_episodes(episodes)
        collected += episodes
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return collected / elapsed


def measure_broadcast(trainer: RLPlannerTrainer, repeats: int) -> dict:
    """Bytes and median encode/decode seconds of one policy broadcast.

    Encodes exactly what the collector broadcasts each epoch (the live
    network's state dict, ``collector-policy`` payload) and decodes it
    the way every worker does.
    """
    encode, decode = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        weights = dumps_payload(
            trainer.network.state_dict(), kind=POLICY_PAYLOAD_KIND
        )
        encode.append(time.perf_counter() - start)
        start = time.perf_counter()
        loads_payload(weights, kind=POLICY_PAYLOAD_KIND)
        decode.append(time.perf_counter() - start)
    return {
        "policy_parameters": trainer.network.n_parameters(),
        "payload_bytes": len(weights),
        "encode_s": statistics.median(encode),
        "decode_s": statistics.median(decode),
        "repeats": repeats,
    }


def measure_train(
    env: BatchedFloorplanEnv, args, async_collect: bool, jobs: int
) -> float:
    """Epochs/sec of one full ``train()`` run (collection + updates)."""
    trainer = RLPlannerTrainer(
        env,
        TrainerConfig(
            epochs=args.async_epochs,
            episodes_per_epoch=args.episodes,
            batch_size=args.batch_size,
            collect_jobs=jobs,
            async_collect=async_collect,
            seed=args.seed,
            log_every=0,
            ppo=PPOConfig(),
        ),
    )
    start = time.perf_counter()
    try:
        trainer.train()
    finally:
        trainer.close_collector()
    return args.async_epochs / (time.perf_counter() - start)


def run_async_leg(env: BatchedFloorplanEnv, args, cpu_count: int) -> tuple:
    """Lockstep vs pipelined ``train()`` at the same worker count.

    Returns ``(payload_fragment, exit_status)``.  Alternates the two
    arms per round (same reasoning as the collection windows) and takes
    medians.  The two runs compute different trajectories — async is
    deliberately one epoch stale — so only wall clock is compared.
    """
    jobs = args.async_jobs
    samples = {"lockstep": [], "async": []}
    for round_index in range(args.rounds):
        for arm, async_collect in (("lockstep", False), ("async", True)):
            rate = measure_train(env, args, async_collect, jobs)
            samples[arm].append(rate)
            print(
                f"round {round_index}: train[{arm:<8s}] jobs={jobs} "
                f"{rate:8.2f} epochs/s"
            )
    medians = {arm: statistics.median(rates) for arm, rates in samples.items()}
    speedup = medians["async"] / medians["lockstep"]
    enforceable = cpu_count >= 4
    status = 0
    verdict = ""
    if not args.smoke:
        if speedup >= args.async_target:
            verdict = "  [ok]"
        elif not enforceable:
            verdict = (
                f"  [unmeasurable: overlap needs >= 4 cores, host has "
                f"{cpu_count}]"
            )
        else:
            verdict = f"  [below {args.async_target:.1f}x target]"
            if args.strict:
                status = 1
    print(
        f"async overlap speedup (jobs={jobs}, epochs={args.async_epochs}): "
        f"{speedup:.2f}x{verdict}"
    )
    fragment = {
        "collect_jobs": jobs,
        "epochs": args.async_epochs,
        "epochs_per_second": medians,
        "speedup": speedup,
        "target": args.async_target,
        "target_enforceable_on_host": enforceable,
        "target_met": speedup >= args.async_target,
    }
    return fragment, status


def run_remote_leg(env: BatchedFloorplanEnv, args, cpu_count: int) -> tuple:
    """Lease-based TCP collection vs the same-width local pool.

    Returns ``(payload_fragment, exit_status)``.  Two localhost
    ``collect_worker.py`` subprocesses serve a ``collect_workers=2``
    trainer; the reference arm is the ``collect_jobs=2`` pipe-based
    pool.  Episodes are bitwise identical either way, so the measured
    ratio is the transport overhead alone.
    """
    workers = 2
    pool = RLPlannerTrainer(
        env,
        TrainerConfig(
            epochs=1,
            episodes_per_epoch=args.episodes,
            batch_size=args.batch_size,
            collect_jobs=workers,
            seed=args.seed,
            log_every=0,
            ppo=PPOConfig(),
        ),
    )
    remote = RLPlannerTrainer(
        env,
        TrainerConfig(
            epochs=1,
            episodes_per_epoch=args.episodes,
            batch_size=args.batch_size,
            collect_workers=workers,
            collect_bind="127.0.0.1:0",
            seed=args.seed,
            log_every=0,
            ppo=PPOConfig(),
        ),
    )
    host, port = remote.collector_address
    procs = [
        subprocess.Popen(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "collect_worker.py"),
                "--connect",
                f"{host}:{port}",
                "--worker-id",
                f"bench-{index}",
                "--backoff-base",
                "0.1",
                "--backoff-max",
                "1.0",
            ],
            cwd=REPO_ROOT,
        )
        for index in range(workers)
    ]
    samples = {"pool": [], "remote": []}
    try:
        pool.collect_episodes(args.episodes)  # warm both transports
        remote.collect_episodes(args.episodes)
        for round_index in range(args.rounds):
            for arm, trainer in (("pool", pool), ("remote", remote)):
                rate = measure_window(
                    trainer, args.episodes, args.window_seconds
                )
                samples[arm].append(rate)
                print(
                    f"round {round_index}: collect[{arm:<6s}] "
                    f"workers={workers} {rate:8.1f} eps/s"
                )
        degraded = remote._collector.degraded
    finally:
        pool.close_collector()
        remote.close_collector()
        for proc in procs:
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    medians = {arm: statistics.median(rates) for arm, rates in samples.items()}
    ratio = medians["remote"] / medians["pool"]
    enforceable = cpu_count >= 4
    status = 0
    verdict = ""
    if degraded:
        # The measurement silently became pool-vs-local-fallback; say so
        # rather than reporting a meaningless ratio as the transport tax.
        verdict = "  [INVALID: remote collector degraded to local]"
        if args.strict:
            status = 1
    elif not args.smoke:
        if ratio >= args.remote_target:
            verdict = "  [ok]"
        elif not enforceable:
            verdict = (
                f"  [unmeasurable: coordinator + {workers} workers need "
                f">= 4 cores, host has {cpu_count}]"
            )
        else:
            verdict = f"  [below {args.remote_target:.2f}x budget]"
            if args.strict:
                status = 1
    print(
        f"remote/pool throughput ratio (workers={workers}, localhost): "
        f"{ratio:.2f}x{verdict}"
    )
    fragment = {
        "collect_workers": workers,
        "episodes_per_second": medians,
        "ratio_vs_pool": ratio,
        "target": args.remote_target,
        "target_enforceable_on_host": enforceable,
        "target_met": ratio >= args.remote_target,
        "degraded": degraded,
    }
    return fragment, status


def run(args) -> int:
    env = build_env(args.grid, args.system_seed)
    jobs_list = [int(j) for j in args.jobs_list.split(",")]
    cpu_count = os.cpu_count() or 1
    trainers = {
        jobs: make_trainer(env, args.batch_size, jobs, args.seed)
        for jobs in jobs_list
    }
    print(
        f"scenario: grid={args.grid} batch_size={args.batch_size} "
        f"episodes/call={args.episodes} on {cpu_count} cpu core(s)"
    )
    broadcast = measure_broadcast(trainers[jobs_list[0]], max(args.rounds, 3))
    print(
        f"broadcast per epoch: {broadcast['payload_bytes'] / 1e6:.2f} MB "
        f"({broadcast['policy_parameters']} parameters), encode "
        f"{broadcast['encode_s'] * 1e3:.1f} ms, decode "
        f"{broadcast['decode_s'] * 1e3:.1f} ms"
    )
    try:
        for trainer in trainers.values():  # warm pools, caches, code paths
            trainer.collect_episodes(args.episodes)

        samples: dict = {jobs: [] for jobs in jobs_list}
        for round_index in range(args.rounds):
            # Alternate arms inside each round so slow machine phases
            # hit every worker count, not just one.
            for jobs in jobs_list:
                rate = measure_window(
                    trainers[jobs], args.episodes, args.window_seconds
                )
                samples[jobs].append(rate)
                print(
                    f"round {round_index}: collect_jobs={jobs:<2d} "
                    f"{rate:8.1f} eps/s"
                )
    finally:
        for trainer in trainers.values():
            trainer.close_collector()

    medians = {jobs: statistics.median(samples[jobs]) for jobs in jobs_list}
    print()
    for jobs in jobs_list:
        print(f"collect_jobs={jobs:<2d} median {medians[jobs]:8.1f} eps/s")
    baseline = medians[jobs_list[0]]
    enforceable = cpu_count >= max(jobs_list)
    speedups = {}
    status = 0
    for jobs in jobs_list[1:]:
        speedup = medians[jobs] / baseline
        speedups[jobs] = speedup
        verdict = ""
        if not args.smoke and jobs == jobs_list[-1]:
            ok = speedup >= args.target
            if ok:
                verdict = "  [ok]"
            elif not enforceable:
                verdict = (
                    f"  [unmeasurable: {jobs} workers need >= {jobs} cores, "
                    f"host has {cpu_count}]"
                )
            else:
                verdict = f"  [below {args.target:.1f}x target]"
                if args.strict:
                    status = 1
        print(
            f"speedup collect_jobs={jobs} vs {jobs_list[0]}: "
            f"{speedup:.2f}x{verdict}"
        )

    print()
    async_fragment, async_status = run_async_leg(env, args, cpu_count)
    status = status or async_status

    print()
    remote_fragment, remote_status = run_remote_leg(env, args, cpu_count)
    status = status or remote_status

    payload = {
        "benchmark": "bench_collect",
        "mode": "smoke" if args.smoke else "full",
        "cpu_count": cpu_count,
        "scenario": {
            "grid_size": args.grid,
            "batch_size": args.batch_size,
            "episodes_per_call": args.episodes,
            "system_seed": args.system_seed,
        },
        "episodes_per_second": {str(j): medians[j] for j in jobs_list},
        "speedup_vs_in_process": {str(j): speedups[j] for j in speedups},
        "target": args.target,
        # The target presumes the pool has cores to spread over; a
        # single-core host measures broadcast overhead, not parallelism.
        "target_enforceable_on_host": enforceable,
        "target_met": bool(
            speedups and speedups[jobs_list[-1]] >= args.target
        ),
        "broadcast": broadcast,
        "async_overlap": async_fragment,
        "remote_transport": remote_fragment,
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs-list",
        type=str,
        default="1,2,4",
        help="comma-separated collect_jobs counts; the first is the baseline",
    )
    parser.add_argument("--grid", type=int, default=32, help="placement grid size")
    parser.add_argument(
        "--batch-size",
        type=int,
        default=16,
        help="lockstep wave width inside each worker",
    )
    parser.add_argument(
        "--episodes", type=int, default=16, help="episodes per collection call"
    )
    parser.add_argument(
        "--rounds", type=int, default=5, help="alternating measurement rounds"
    )
    parser.add_argument(
        "--window-seconds",
        type=float,
        default=2.0,
        help="minimum seconds per measurement window",
    )
    parser.add_argument("--seed", type=int, default=0, help="trainer seed")
    parser.add_argument(
        "--system-seed", type=int, default=1, help="synthetic system seed"
    )
    parser.add_argument(
        "--target", type=float, default=2.0, help="required speedup multiple"
    )
    parser.add_argument(
        "--async-jobs",
        type=int,
        default=2,
        help="collect_jobs for the async-overlap leg (both arms)",
    )
    parser.add_argument(
        "--async-epochs",
        type=int,
        default=4,
        help="epochs per timed train() run in the async-overlap leg",
    )
    parser.add_argument(
        "--async-target",
        type=float,
        default=1.3,
        help="required async-vs-lockstep train() speedup (>=4-core hosts)",
    )
    parser.add_argument(
        "--remote-target",
        type=float,
        default=0.75,
        help="minimum remote/pool throughput ratio on localhost "
        "(>=4-core hosts): the lease-based TCP transport may cost at "
        "most this much vs the pipe-based pool at the same width",
    )
    parser.add_argument(
        "--out",
        type=str,
        default="BENCH_trainer.json",
        help="machine-readable result path",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when the widest pool misses the target on a "
        "host with enough cores",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single fast round, no target check (CI)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.rounds = 1
        args.grid = min(args.grid, 16)
        args.episodes = min(args.episodes, 8)
        args.batch_size = min(args.batch_size, 8)
        args.window_seconds = min(args.window_seconds, 0.5)
        args.async_epochs = min(args.async_epochs, 2)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
