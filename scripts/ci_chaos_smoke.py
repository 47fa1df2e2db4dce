"""Chaos smoke test for the fault-tolerance layer (CI job).

Drives ``scripts/run_experiments.py`` end to end under deterministic
fault injection (``RLPLANNER_CHAOS``), the way a sweep on a flaky
machine would fail:

1. **Reference** — run a tiny-budget Table I+III sweep (with sharded
   episode collection) to completion, no chaos.
2. **Crash leg** — run the identical sweep while chaos SIGKILLs one
   scheduler worker (a whole method arm's process) and one collection
   pool worker (one slice of an RL arm's epoch), each exactly once via
   sentinel-dir accounting.  The sweep must exit 0 with every table
   row **bitwise identical** to the reference — dead workers are
   retried / re-dispatched, losing nothing.
3. **Keep-going leg** — run with a deterministically failing arm
   (chaos ``raise`` with ``times=0``: the failure reproduces on every
   retry) under ``--keep-going --resume``.  The sweep must exit
   *nonzero*, quarantine exactly that arm in ``report.json``, keep
   every surviving arm bitwise identical to the reference, and publish
   every surviving arm to the run store.
4. **Async leg** — run the same sweep twice with ``--async-collect``
   (pipelined actor/learner overlap): once undisturbed as the async
   reference, once while chaos SIGKILLs a collection worker inside a
   *prefetched* epoch (``collector.prefetch``), exactly once.  Async
   results are deliberately one epoch stale, so they are compared
   against the async reference, not leg 1's lockstep reference; the
   crashed prefetch must be re-dispatched from its stored pre-update
   weights so the chaos run stays bitwise identical to it.
5. **Remote leg** — run the sweep with ``--collect-workers 2``: a
   lease-based TCP coordinator on localhost serving two persistent
   ``scripts/collect_worker.py`` subprocesses.  Chaos SIGKILLs one
   worker mid-slice (exactly once) and chaos-disconnects the other's
   connection mid-conversation (exactly once); the coordinator must
   fence the lost leases, re-dispatch their slices, and finish with
   every table row **bitwise identical** to leg 1's in-process
   reference — the remote transport is pure plumbing.

Exit code 0 = all assertions hold.  Designed to be fast (a few
minutes) and deterministic: every fault fires at a named injection
point under seeded accounting, so there is nothing racy to flake on.

Usage:
    PYTHONPATH=src python scripts/ci_chaos_smoke.py [--workdir DIR]
"""

import argparse
import hashlib
import json
import os
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SWEEP_ARGS = [
    "--skip",
    "table2",
    "--epochs",
    "3",
    "--episodes",
    "2",
    "--grid",
    "12",
    "--sa-iters",
    "8",
    "--sa-chains",
    "2",
    "--batch-size",
    "4",
    "--collect-jobs",
    "2",
    "--positions",
    "2",
    "--t1-systems",
    "multi_gpu",
    "--t3-cases",
    "1",
    "--no-time-match",
    "--jobs",
    "2",
    "--retries",
    "2",
]

#: The arm the keep-going leg poisons (a deterministic failure that
#: reproduces on every retry).  Chosen to be dependency-independent so
#: every other arm must still complete.
POISONED_ARM = "synthetic1/RLPlanner(RND)"


def run_sweep(out: Path, env: dict, extra=(), check=True):
    return subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "scripts" / "run_experiments.py"),
            *SWEEP_ARGS,
            *extra,
            "--out",
            str(out),
        ],
        check=check,
        env=env,
        cwd=REPO_ROOT,
    )


def load_table_rows(out: Path) -> dict:
    """{(system, method): (reward, wirelength, temperature_c)}."""
    rows = {}
    for name in ("table1_multi_gpu.json", "table3.json"):
        payload = json.loads((out / name).read_text())
        for row in payload["results"]:
            rows[(row["system"], row["method"])] = (
                row["reward"],
                row["wirelength"],
                row["temperature_c"],
            )
    return rows


def snapshot_results(store: Path) -> dict:
    """{relative path: sha256} of every published store result."""
    root = store / "results"
    if not root.exists():
        return {}
    return {
        str(path.relative_to(store)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*.npz"))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workdir", type=str, default=None)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="chaos_smoke_"))
    workdir.mkdir(parents=True, exist_ok=True)
    base_env = dict(os.environ)
    base_env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + base_env.get("PYTHONPATH", "")
    )
    base_env.pop("RLPLANNER_CHAOS", None)

    print("=== reference sweep (no chaos) ===")
    run_sweep(workdir / "ref_out", base_env)
    reference = load_table_rows(workdir / "ref_out")
    assert reference, "reference sweep produced no table rows"
    print(f"reference: {len(reference)} arms")

    print("\n=== crash leg: SIGKILL one scheduler + one collector worker ===")
    sched_dir = workdir / "chaos_sched"
    coll_dir = workdir / "chaos_coll"
    crash_env = dict(base_env)
    crash_env["RLPLANNER_CHAOS"] = json.dumps(
        [
            # Kill the worker process of one whole method arm, once.
            {
                "point": "scheduler.job",
                "mode": "crash",
                "match": "multi_gpu/RLPlanner",
                "times": 1,
                "dir": str(sched_dir),
            },
            # Kill one episode-collection pool worker mid-epoch, once.
            {
                "point": "collector.slice",
                "mode": "crash",
                "times": 1,
                "dir": str(coll_dir),
            },
        ]
    )
    run_sweep(workdir / "crash_out", crash_env)
    assert len(list(sched_dir.iterdir())) == 1, (
        "the scheduler-worker crash never fired"
    )
    assert len(list(coll_dir.iterdir())) == 1, (
        "the collector-worker crash never fired"
    )
    crashed = load_table_rows(workdir / "crash_out")
    assert crashed.keys() == reference.keys(), (
        "crash-leg sweep covers different arms than the reference"
    )
    for arm, expected in reference.items():
        assert crashed[arm] == expected, (
            f"{arm}: with worker crashes {crashed[arm]} != "
            f"reference {expected} — retry was not bitwise-faithful"
        )
    print(
        f"OK: both injected crashes fired; all {len(reference)} arms "
        "bitwise identical to the undisturbed reference"
    )

    print("\n=== keep-going leg: deterministically failing arm ===")
    poison_env = dict(base_env)
    poison_env["RLPLANNER_CHAOS"] = json.dumps(
        {
            "point": "scheduler.job",
            "mode": "raise",
            "error": "deterministic",
            "match": POISONED_ARM,
            "times": 0,  # fires on every attempt: a permanent failure
        }
    )
    store = workdir / "keepgoing_store"
    proc = run_sweep(
        workdir / "keepgoing_out",
        poison_env,
        extra=[
            "--keep-going",
            "--resume",
            "--store-dir",
            str(store),
        ],
        check=False,
    )
    assert proc.returncode != 0, (
        "sweep with a quarantined arm exited 0 — partial sweeps must "
        "exit nonzero"
    )

    report = json.loads((workdir / "keepgoing_out" / "report.json").read_text())
    assert report["ok"] is False
    triage = {
        job_id: entry["status"] for job_id, entry in report["jobs"].items()
    }
    assert triage.get(POISONED_ARM) == "quarantined", (
        f"expected {POISONED_ARM} quarantined, triage: {triage}"
    )
    quarantined = [j for j, s in triage.items() if s == "quarantined"]
    assert quarantined == [POISONED_ARM], (
        f"unexpected extra quarantines: {quarantined}"
    )

    surviving = load_table_rows(workdir / "keepgoing_out")
    expected_surviving = {
        arm for arm in reference if f"{arm[0]}/{arm[1]}" != POISONED_ARM
    }
    assert set(surviving) == expected_surviving, (
        f"surviving arms {sorted(surviving)} != expected "
        f"{sorted(expected_surviving)}"
    )
    for arm in expected_surviving:
        assert surviving[arm] == reference[arm], (
            f"{arm}: surviving arm {surviving[arm]} != reference "
            f"{reference[arm]}"
        )
    published = snapshot_results(store)
    assert len(published) == len(expected_surviving), (
        f"{len(published)} store artifacts for "
        f"{len(expected_surviving)} surviving arms — independent arms "
        "must publish even when a sibling is quarantined"
    )
    print(
        f"OK: {POISONED_ARM} quarantined; {len(expected_surviving)} "
        "surviving arms bitwise identical and published to the store"
    )

    print("\n=== async leg: SIGKILL a prefetch worker mid-epoch ===")
    run_sweep(workdir / "async_ref_out", base_env, extra=["--async-collect"])
    async_reference = load_table_rows(workdir / "async_ref_out")
    assert async_reference.keys() == reference.keys(), (
        "async sweep covers different arms than the lockstep reference"
    )
    assert any(
        async_reference[arm] != reference[arm]
        for arm in reference
        if "RLPlanner" in arm[1]
    ), (
        "async RL arms match lockstep bitwise — the one-epoch staleness "
        "schedule is not actually engaged"
    )

    prefetch_dir = workdir / "chaos_prefetch"
    async_env = dict(base_env)
    async_env["RLPLANNER_CHAOS"] = json.dumps(
        {
            "point": "collector.prefetch",
            "mode": "crash",
            "times": 1,
            "dir": str(prefetch_dir),
        }
    )
    run_sweep(
        workdir / "async_crash_out", async_env, extra=["--async-collect"]
    )
    assert len(list(prefetch_dir.iterdir())) == 1, (
        "the prefetch-worker crash never fired"
    )
    async_crashed = load_table_rows(workdir / "async_crash_out")
    assert async_crashed.keys() == async_reference.keys()
    for arm, expected in async_reference.items():
        assert async_crashed[arm] == expected, (
            f"{arm}: with a prefetch-worker crash {async_crashed[arm]} != "
            f"async reference {expected} — re-dispatch from the stored "
            "pre-update weights was not bitwise-faithful"
        )
    print(
        f"OK: prefetch crash fired; all {len(async_reference)} arms "
        "bitwise identical to the undisturbed async reference"
    )

    print("\n=== remote leg: kill + disconnect leased TCP workers ===")
    # A fixed port so persistent workers can re-lease across the
    # sweep's successive per-arm coordinators; --jobs 1 (argparse
    # last-wins over SWEEP_ARGS) keeps one coordinator on it at a time.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    kill_dir = workdir / "chaos_remote_kill"
    disc_dir = workdir / "chaos_remote_disc"
    remote_env = dict(base_env)
    remote_env["RLPLANNER_CHAOS"] = json.dumps(
        [
            # SIGKILL one remote worker mid-slice, once (fires inside
            # a collect_worker.py subprocess — the trainer runs no
            # collector.slice point of its own under remote dispatch).
            {
                "point": "collector.slice",
                "mode": "crash",
                "times": 1,
                "dir": str(kill_dir),
            },
            # Sever the other worker's connection mid-conversation,
            # once (worker-side recv; it must reconnect and re-lease).
            {
                "point": "transport.recv",
                "mode": "disconnect",
                "match": "worker",
                "times": 1,
                "dir": str(disc_dir),
            },
        ]
    )
    workers = [
        subprocess.Popen(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "collect_worker.py"),
                "--connect",
                f"127.0.0.1:{port}",
                "--worker-id",
                f"ci-remote-{index}",
                "--persist",
                "--backoff-base",
                "0.1",
                "--backoff-max",
                "1.0",
            ],
            env=remote_env,
            cwd=REPO_ROOT,
        )
        for index in range(2)
    ]
    try:
        run_sweep(
            workdir / "remote_out",
            remote_env,
            extra=[
                "--collect-workers",
                "2",
                "--collect-bind",
                f"127.0.0.1:{port}",
                "--jobs",
                "1",
            ],
        )
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.terminate()
        for worker in workers:
            try:
                worker.wait(timeout=20)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait(timeout=20)
    assert len(list(kill_dir.iterdir())) == 1, (
        "the remote-worker SIGKILL never fired"
    )
    assert len(list(disc_dir.iterdir())) == 1, (
        "the chaos disconnect never fired"
    )
    remote = load_table_rows(workdir / "remote_out")
    assert remote.keys() == reference.keys(), (
        "remote-leg sweep covers different arms than the reference"
    )
    for arm, expected in reference.items():
        assert remote[arm] == expected, (
            f"{arm}: with remote collection under kill+disconnect "
            f"{remote[arm]} != reference {expected} — lease recovery "
            "was not bitwise-faithful"
        )
    print(
        f"OK: remote kill + disconnect both fired; all {len(reference)} "
        "arms bitwise identical to the in-process reference"
    )

    print("\nchaos smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
