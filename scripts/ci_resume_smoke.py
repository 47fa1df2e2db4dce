"""Interrupt-and-resume smoke test for the run store (CI job).

Drives ``scripts/run_experiments.py`` end to end, the way a user whose
sweep dies mid-flight would:

1. **Reference** — run a tiny-budget Table I+III sweep to completion
   into its own run store.
2. **Interrupt** — start the identical sweep into a *fresh* store and
   SIGKILL the whole process group once at least one method arm has
   published (mid-sweep, possibly mid-arm).
3. **Resume** — re-run the killed sweep with ``--resume``.  Assert that
   every artifact the killed run published was left untouched (same
   mtime and content — completed arms never re-execute) and that the
   final table JSONs match the reference run exactly (the resumed
   sweep is bitwise-faithful; time matching is disabled so every arm
   is deterministic).
4. **Re-run** — invoke the finished sweep once more with ``--resume``
   and assert *no* store artifact changes at all: a completed sweep
   re-executes zero method-arm jobs.
5. **Ctrl-C** — repeat interrupt+resume with SIGINT instead of SIGKILL
   (sent to the parent only, exactly like a terminal Ctrl-C): the
   scheduler must tear its worker pool down promptly instead of
   blocking on in-flight arms or leaving orphans, and the store it
   leaves behind must resume to the same reference tables.

Exit code 0 = all assertions hold.  Designed to be fast (~1-2 min) and
deterministic on noisy CI hosts; if the interrupted run finishes before
the kill lands (very fast machine), the mid-arm resume leg degrades to
a completed-sweep resume, which steps 3-4 still verify.

Usage:
    PYTHONPATH=src python scripts/ci_resume_smoke.py [--workdir DIR]
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
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
    "--positions",
    "2",
    "--t1-systems",
    "multi_gpu",
    "--t3-cases",
    "1",
    "--no-time-match",
    "--rl-checkpoint-every",
    "1",
    "--sa-checkpoint-every",
    "10",
]


def sweep_command(store: Path, out: Path, jobs: int) -> list:
    return [
        sys.executable,
        str(REPO_ROOT / "scripts" / "run_experiments.py"),
        *SWEEP_ARGS,
        "--jobs",
        str(jobs),
        "--resume",
        "--store-dir",
        str(store),
        "--out",
        str(out),
    ]


def run_sweep(store: Path, out: Path, jobs: int, env: dict) -> None:
    subprocess.run(
        sweep_command(store, out, jobs),
        check=True,
        env=env,
        cwd=REPO_ROOT,
    )


def snapshot_results(store: Path) -> dict:
    """{relative path: (mtime_ns, sha256)} of every published result."""
    results = {}
    root = store / "results"
    if not root.exists():
        return results
    for path in sorted(root.rglob("*.npz")):
        stat = path.stat()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        results[str(path.relative_to(store))] = (stat.st_mtime_ns, digest)
    return results


def interrupt_mid_sweep(
    store: Path, out: Path, jobs: int, env: dict, sig=signal.SIGKILL
) -> bool:
    """Start the sweep and interrupt it mid-flight with ``sig``.

    ``SIGKILL`` goes to the whole process group (hard machine-death
    simulation).  ``SIGINT`` goes to the parent process only — exactly
    what a terminal Ctrl-C delivers to a foreground job leader — so the
    sweep itself is responsible for tearing down its pool workers; if
    it fails to exit within the grace period the group is SIGKILLed and
    the orphan-cleanup bug would surface here as a timeout escalation.

    Returns True when the interrupt landed before the sweep finished.
    """
    proc = subprocess.Popen(
        sweep_command(store, out, jobs),
        env=env,
        cwd=REPO_ROOT,
        start_new_session=True,  # so the kill also reaps pool workers
    )
    deadline = time.monotonic() + 600
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                print("NOTE: sweep finished before the interrupt landed")
                return False
            if snapshot_results(store):
                # At least one arm is published; a later arm is now (or
                # will shortly be) in flight.  Let it make some progress
                # past its first checkpoint, then interrupt everything.
                time.sleep(1.0)
                break
            time.sleep(0.1)
        if proc.poll() is not None:
            print("NOTE: sweep finished before the interrupt landed")
            return False
        if sig == signal.SIGINT:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=60)
                raise AssertionError(
                    "sweep did not exit within 60 s of SIGINT (pool "
                    "shutdown is blocking on in-flight jobs?)"
                )
        else:
            os.killpg(proc.pid, sig)
            proc.wait(timeout=60)
        assert proc.returncode != 0, (
            "interrupted sweep exited 0 — the interrupt was swallowed"
        )
        return True
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on errors
            os.killpg(proc.pid, signal.SIGKILL)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workdir", type=str, default=None)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="resume_smoke_"))
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )

    print("=== reference sweep (uninterrupted) ===")
    run_sweep(workdir / "ref_store", workdir / "ref_out", args.jobs, env)
    reference = load_table_rows(workdir / "ref_out")
    assert reference, "reference sweep produced no table rows"

    print("\n=== interrupted sweep ===")
    store = workdir / "resume_store"
    killed = interrupt_mid_sweep(store, workdir / "killed_out", args.jobs, env)
    completed_before = snapshot_results(store)
    print(
        f"killed={killed}; {len(completed_before)} arms published "
        "before the interrupt"
    )

    print("\n=== resumed sweep ===")
    run_sweep(store, workdir / "resumed_out", args.jobs, env)
    after_resume = snapshot_results(store)

    for rel, stamp in completed_before.items():
        assert after_resume.get(rel) == stamp, (
            f"completed arm re-executed or rewritten on resume: {rel}"
        )
    print(
        f"OK: all {len(completed_before)} pre-kill artifacts untouched "
        "by the resume"
    )

    resumed = load_table_rows(workdir / "resumed_out")
    assert resumed.keys() == reference.keys(), (
        "resumed sweep covers different arms than the reference"
    )
    for arm, expected in reference.items():
        assert resumed[arm] == expected, (
            f"{arm}: resumed {resumed[arm]} != reference {expected}"
        )
    print(f"OK: all {len(reference)} arms match the uninterrupted run exactly")

    print("\n=== completed sweep re-run (--resume) ===")
    run_sweep(store, workdir / "rerun_out", args.jobs, env)
    after_rerun = snapshot_results(store)
    # Non-empty first: were the result files not found at all, the
    # equality below would compare two empty snapshots and pass.
    assert after_rerun, f"no published results found under {store}/results"
    assert after_rerun == after_resume, (
        "re-running a completed sweep touched store artifacts "
        "(method-arm jobs executed)"
    )
    assert load_table_rows(workdir / "rerun_out") == reference
    print("OK: completed sweep re-executed zero method-arm jobs")

    print("\n=== Ctrl-C interrupted sweep (SIGINT) ===")
    int_store = workdir / "sigint_store"
    interrupt_mid_sweep(
        int_store, workdir / "sigint_out", args.jobs, env, sig=signal.SIGINT
    )
    published_at_interrupt = snapshot_results(int_store)
    print(f"{len(published_at_interrupt)} arms published before the Ctrl-C")

    print("\n=== resume after Ctrl-C ===")
    run_sweep(int_store, workdir / "sigint_resumed_out", args.jobs, env)
    after_sigint_resume = snapshot_results(int_store)
    for rel, stamp in published_at_interrupt.items():
        assert after_sigint_resume.get(rel) == stamp, (
            f"completed arm re-executed or rewritten on resume: {rel}"
        )
    sigint_resumed = load_table_rows(workdir / "sigint_resumed_out")
    assert sigint_resumed.keys() == reference.keys()
    for arm, expected in reference.items():
        assert sigint_resumed[arm] == expected, (
            f"{arm}: post-Ctrl-C resume {sigint_resumed[arm]} != "
            f"reference {expected}"
        )
    print(
        f"OK: Ctrl-C left a recoverable store; all {len(reference)} arms "
        "match the uninterrupted run exactly"
    )

    print("\nresume smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
