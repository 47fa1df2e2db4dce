"""Checks of the benchmark itself (about four minutes on 2 cores).

    python3 -m pytest -q perfbench/repeat_check.py

Every workload runs twice in its traced form (``--trace 1``), which
does one fixed amount of work untraced and again traced.  The exact
counts and ``best_reward`` must repeat across the two runs, and the
pool must reproduce the in-process training result bitwise.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 3


def _run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


@pytest.fixture(scope="module")
def runs():
    return {name: (_run(name), _run(name)) for name in run.WORKLOADS}


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_counts_and_best_reward_repeat(runs, workload):
    first, second = runs[workload]
    for outcome in (first, second):
        assert outcome["result"]["correct"], outcome["detail"]["checks_failed"]
    assert first["detail"]["counts"] == second["detail"]["counts"]
    assert first["detail"]["best_reward"] == second["detail"]["best_reward"]
    # How many evaluates share a batch depends on timing; all else repeats.
    span_calls = {
        key: metric["value"]
        for key, metric in first["result"]["metrics"].items()
        if (key.endswith(".calls") or key.endswith(".bytes"))
        and key != "serve.compute.calls"
    }
    assert span_calls == {
        key: second["result"]["metrics"][key]["value"] for key in span_calls
    }


def test_pool_reproduces_in_process_training(runs):
    in_process, pool = runs["rl_train"][0], runs["rl_train_pool"][0]
    assert pool["detail"]["best_reward"] == in_process["detail"]["best_reward"]
    metrics = {k: v["value"] for k, v in pool["result"]["metrics"].items()}
    assert metrics["bumps.assign.calls"] == (
        in_process["result"]["metrics"]["bumps.assign.calls"]["value"]
    )
    assert metrics["nn.dumps_payload.calls"] > 0
    assert in_process["result"]["metrics"]["nn.dumps_payload.calls"]["value"] == 0
