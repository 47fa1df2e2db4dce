"""CLI tests (heavy experiment paths are monkeypatched)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli as cli
from repro.experiments import ExperimentBudget, MethodResult


@pytest.fixture
def fake_results():
    return [
        MethodResult(
            system="multi_gpu",
            method="RLPlanner",
            reward=-10.0,
            wirelength=1000.0,
            temperature_c=80.0,
            runtime_s=1.0,
        )
    ]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_train_requires_known_benchmark(self):
        with pytest.raises(SystemExit):
            cli.main(["train", "not_a_benchmark"])


class TestBudgetConstruction:
    def test_custom_budget_passed(self, monkeypatch, fake_results):
        captured = {}

        def fake_run_table1(budget, **kwargs):
            captured["budget"] = budget
            return fake_results

        monkeypatch.setattr(cli, "run_table1", fake_run_table1)
        cli.main(["table1", "--epochs", "5", "--grid", "16", "--seed", "3"])
        budget = captured["budget"]
        assert budget.rl_epochs == 5
        assert budget.grid_size == 16
        assert budget.seed == 3
        # Defaults since PR 2: batched collection and multi-chain SA.
        assert budget.rollout_batch_size == 16
        assert budget.sa_chains == 16
        assert budget.hotspot_reuse_factorization is False

    def test_batch_size_flag(self, monkeypatch, fake_results):
        captured = {}

        def fake_run_table1(budget, **kwargs):
            captured["budget"] = budget
            return fake_results

        monkeypatch.setattr(cli, "run_table1", fake_run_table1)
        cli.main(["table1", "--batch-size", "8", "--sa-chains", "4"])
        assert captured["budget"].rollout_batch_size == 8
        assert captured["budget"].sa_chains == 4

    def test_jobs_auto_resolves_to_cpu_count(self, monkeypatch, fake_results):
        captured = {}

        def fake_run_table1(budget, jobs=1, store=None, **kwargs):
            captured["jobs"] = jobs
            captured["store"] = store
            return fake_results

        monkeypatch.setattr(cli, "run_table1", fake_run_table1)
        cli.main(["table1", "--jobs", "auto"])
        assert isinstance(captured["jobs"], int)
        assert captured["jobs"] >= 1
        assert captured["store"] is None  # no --resume, no store

    def test_resume_builds_store(self, monkeypatch, fake_results, tmp_path):
        captured = {}

        def fake_run_table1(budget, jobs=1, store=None, **kwargs):
            captured["store"] = store
            return fake_results

        monkeypatch.setattr(cli, "run_table1", fake_run_table1)
        cli.main(
            ["table1", "--resume", "--store-dir", str(tmp_path / "rs")]
        )
        assert captured["store"] is not None
        assert captured["store"].root == tmp_path / "rs"

    def test_one_chain_accepted_width_one_rejected(
        self, monkeypatch, fake_results
    ):
        """One annealing chain is accepted; width one is rejected by the
        budget, see ``test_invalid_budget_is_a_usage_error``."""
        captured = {}

        def fake_run_table1(budget, **kwargs):
            captured["budget"] = budget
            return fake_results

        monkeypatch.setattr(cli, "run_table1", fake_run_table1)
        # One annealing chain is one chain of the lockstep engine.
        cli.main(["table1", "--sa-chains", "1"])
        assert captured["budget"].sa_chains == 1

    def test_sa_incremental_and_reuse_lu_flags(
        self, monkeypatch, fake_results
    ):
        captured = {}

        def fake_run_table1(budget, **kwargs):
            captured["budget"] = budget
            return fake_results

        monkeypatch.setattr(cli, "run_table1", fake_run_table1)
        cli.main(["table1", "--hotspot-reuse-lu"])
        assert captured["budget"].hotspot_reuse_factorization is True
        with pytest.raises(SystemExit):
            cli.main(["table1", "--sa-incremental"])

    def test_jobs_flag_forwarded(self, monkeypatch, fake_results):
        captured = {}

        def fake_run_table1(budget, jobs=1, **kwargs):
            captured["jobs"] = jobs
            return fake_results

        monkeypatch.setattr(cli, "run_table1", fake_run_table1)
        cli.main(["table1", "--jobs", "4"])
        assert captured["jobs"] == 4

    def test_paper_scale_flag(self, monkeypatch, fake_results):
        captured = {}
        monkeypatch.setattr(
            cli,
            "run_table3",
            lambda budget, **kwargs: captured.setdefault("b", budget)
            or fake_results,
        )
        cli.main(["table3", "--paper-scale"])
        assert captured["b"] == ExperimentBudget.paper_scale()

    def test_paper_scale_keeps_other_flags(self, monkeypatch, fake_results):
        """``--paper-scale`` sets the paper's four budgets and nothing
        else: seed, collection and SA-chain flags still apply."""
        captured = {}

        def fake_run_table1(budget, **kwargs):
            captured["budget"] = budget
            return fake_results

        monkeypatch.setattr(cli, "run_table1", fake_run_table1)
        cli.main(
            [
                "table1", "--paper-scale", "--seed", "3",
                "--collect-jobs", "2", "--async-collect",
                "--sa-chains", "4", "--batch-size", "8", "--epochs", "5",
            ]
        )
        paper = ExperimentBudget.paper_scale()
        assert captured["budget"] == ExperimentBudget(
            rl_epochs=paper.rl_epochs,
            episodes_per_epoch=paper.episodes_per_epoch,
            grid_size=paper.grid_size,
            sa_iterations_hotspot=paper.sa_iterations_hotspot,
            seed=3,
            collect_jobs=2,
            async_collect=True,
            sa_chains=4,
            rollout_batch_size=8,
        )


class TestCommands:
    def test_table1_with_output(self, monkeypatch, fake_results, tmp_path):
        monkeypatch.setattr(
            cli, "run_table1", lambda budget, **kwargs: fake_results
        )
        out = tmp_path / "t1.json"
        assert cli.main(["table1", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["results"][0]["method"] == "RLPlanner"

    def test_table2_with_output(self, monkeypatch, tmp_path, capsys):
        class FakeResult:
            metrics = {"mse": 0.1, "rmse": 0.3, "mae": 0.2, "mape": 0.05, "n": 4}
            speedup = 100.0
            n_systems = 4

            def format(self):
                return "FAKE TABLE2"

        captured = {}

        def fake_run_table2(n_systems, seed, jobs=1, store=None, **kwargs):
            captured["jobs"] = jobs
            captured["store"] = store
            return FakeResult()

        monkeypatch.setattr(cli, "run_table2", fake_run_table2)
        out = tmp_path / "t2.json"
        assert (
            cli.main(
                ["table2", "--systems", "4", "--jobs", "2", "--output", str(out)]
            )
            == 0
        )
        assert "FAKE TABLE2" in capsys.readouterr().out
        assert json.loads(out.read_text())["speedup"] == 100.0
        assert captured["jobs"] == 2

    def test_train_dispatch(self, monkeypatch, fake_results, capsys):
        captured = {}

        def fake_run_all(spec, budget, methods):
            captured["methods"] = methods
            return fake_results

        monkeypatch.setattr(cli, "run_all_methods", fake_run_all)
        assert cli.main(["train", "multi_gpu", "--rnd"]) == 0
        assert captured["methods"] == ("RLPlanner(RND)",)
        assert "RLPlanner" in capsys.readouterr().out

    def test_sa_dispatch_variants(self, monkeypatch, fake_results):
        captured = {}

        def fake_run_all(spec, budget, methods):
            captured.setdefault("calls", []).append(methods)
            return fake_results

        monkeypatch.setattr(cli, "run_all_methods", fake_run_all)
        cli.main(["sa", "cpu_dram"])
        cli.main(["sa", "cpu_dram", "--thermal", "fast"])
        assert captured["calls"] == [
            ("TAP-2.5D(HotSpot)",),
            ("TAP-2.5D*(FastThermal)",),
        ]

    def test_ablations_dispatch(self, monkeypatch, fake_results):
        captured = {}

        def fake_run_ablations(budget, jobs=1, store=None, **kwargs):
            captured["jobs"] = jobs
            return fake_results

        monkeypatch.setattr(cli, "run_ablations", fake_run_ablations)
        assert cli.main(["ablations", "--jobs", "2"]) == 0
        assert captured["jobs"] == 2

    def test_submit_sa_iters(self, monkeypatch, capsys):
        """``submit`` spells the SA budget ``--sa-iters``, like
        ``scripts/run_experiments.py`` and the README."""
        import repro.serve

        captured = {}

        class FakeClient:
            def __init__(self, url):
                captured["url"] = url

            def place(self, benchmark, method, budget):
                captured["budget"] = budget
                result = dict(
                    system=benchmark, method=method, reward=-1.0,
                    wirelength=2.0, temperature_c=3.0,
                )
                return {"result": result, "cache": "miss", "evaluator_calls": 1}

        monkeypatch.setattr(repro.serve, "ServeClient", FakeClient)
        assert cli.main(["submit", "synthetic1", "--sa-iters", "250"]) == 0
        assert captured["budget"]["sa_iterations_hotspot"] == 250
        assert "cache=miss" in capsys.readouterr().out


@pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
def test_nonpositive_job_timeout_rejected(timeout, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(cli, "run_table2", never)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["table2", "--job-timeout", timeout])
    # A string SystemExit prints to stderr and exits 1, as --retries -1.
    assert excinfo.value.code == "--job-timeout must be > 0"


@pytest.mark.parametrize(
    "flags,field",
    [
        (["--epochs", "0"], "rl_epochs"),
        (["--grid", "-3"], "grid_size"),
        (["--sa-chains", "0"], "sa_chains"),
        (["--sa-iters", "0"], "sa_iterations_hotspot"),
        # Rollout waves need two episodes.
        (["--batch-size", "1"], "rollout_batch_size"),
    ],
)
def test_invalid_budget_is_a_usage_error(flags, field, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(cli, "run_table1", never)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["table1", *flags])
    assert str(excinfo.value.code).startswith("invalid budget: " + field)


class TestRunExperimentsScript:
    def test_seed_reaches_the_budget(self, monkeypatch, tmp_path):
        """``--seed`` is one of the shared budget flags, so a scripted
        sweep can run at any seed."""
        import importlib.util

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "run_experiments", root / "scripts" / "run_experiments.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        captured = {}

        def fake_run_table1(budget, **kwargs):
            captured["budget"] = budget
            return []

        monkeypatch.setattr(script, "run_table1", fake_run_table1)
        argv = ["--seed", "5", "--skip", "table2", "table3"]
        assert script.main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert captured["budget"].seed == 5

    def test_negative_retries_rejected_cleanly(self, tmp_path):
        """The sweep script shares the CLI's fault flags and validation."""
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [
                sys.executable,
                str(root / "scripts" / "run_experiments.py"),
                "--retries", "-1",
                "--skip", "table1", "table2", "table3",
                "--out", str(tmp_path / "out"),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "--retries must be >= 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_invalid_budget_rejected_cleanly(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [
                sys.executable,
                str(root / "scripts" / "run_experiments.py"),
                "--positions", "1",
                "--skip", "table1", "table2", "table3",
                "--out", str(tmp_path / "out"),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "invalid budget: position_samples" in proc.stderr
        assert "Traceback" not in proc.stderr
