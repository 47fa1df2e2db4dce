"""Tests for the experiment harness (reporting, summary math, mini runs)."""

import json
from pathlib import Path

import numpy as np
import pytest

from golden_experiments_utils import (
    GOLDEN_EXPERIMENTS_BUMP_PATH,
    GOLDEN_EXPERIMENTS_PATH,
    run_golden_experiments,
)
from repro.experiments import (
    ExperimentBudget,
    MethodResult,
    format_table,
    run_table2,
    save_results,
)
from repro.experiments import ablations
from repro.experiments.ablations import ABLATION_VARIANTS
from repro.experiments.report import format_comparison
from repro.experiments.table3 import improvement_summary
from repro.reward import RewardCalculator
from repro.thermal import ThermalConfig


def _result(system, method, reward):
    return MethodResult(
        system=system,
        method=method,
        reward=reward,
        wirelength=1000.0,
        temperature_c=80.0,
        runtime_s=1.0,
    )


class TestReport:
    def test_format_table_contains_rows(self):
        results = [
            _result("sysA", "RLPlanner", -5.0),
            _result("sysA", "TAP-2.5D(HotSpot)", -6.0),
        ]
        text = format_table(results, title="Demo")
        assert "Demo" in text
        assert "RLPlanner" in text
        assert "-5.0000" in text

    def test_format_comparison_includes_paper(self):
        results = [_result("sysA", "RLPlanner", -5.0)]
        ref = {"RLPlanner": {"reward": -5.5}}
        text = format_comparison(results, ref, "sysA")
        assert "-5.5000" in text

    def test_format_comparison_missing_reference(self):
        results = [_result("sysA", "NewMethod", -5.0)]
        text = format_comparison(results, {}, "sysA")
        assert "n/a" in text

    def test_save_results_roundtrip(self, tmp_path):
        results = [_result("sysA", "RLPlanner", -5.0)]
        path = tmp_path / "out" / "results.json"
        save_results(results, path, metadata={"budget": "tiny"})
        payload = json.loads(path.read_text())
        assert payload["metadata"]["budget"] == "tiny"
        assert payload["results"][0]["reward"] == -5.0


class TestImprovementSummary:
    def test_positive_when_rl_better(self):
        results = [
            _result("s1", "RLPlanner(RND)", -8.0),
            _result("s1", "TAP-2.5D(HotSpot)", -10.0),
            _result("s2", "RLPlanner(RND)", -9.0),
            _result("s2", "TAP-2.5D(HotSpot)", -10.0),
        ]
        summary = improvement_summary(results)
        assert summary["rnd_vs_hotspot_pct"] == pytest.approx(15.0)

    def test_negative_when_rl_worse(self):
        results = [
            _result("s1", "RLPlanner(RND)", -12.0),
            _result("s1", "TAP-2.5D(HotSpot)", -10.0),
        ]
        summary = improvement_summary(results)
        assert summary["rnd_vs_hotspot_pct"] == pytest.approx(-20.0)

    def test_missing_methods_yield_nan(self):
        summary = improvement_summary([_result("s1", "RLPlanner(RND)", -5.0)])
        assert np.isnan(summary["rnd_vs_hotspot_pct"])


class TestBudget:
    def test_paper_scale(self):
        budget = ExperimentBudget.paper_scale()
        assert budget.rl_epochs == 600
        assert budget.grid_size == 32

    def test_default_is_scaled_down(self):
        assert ExperimentBudget().rl_epochs < 100


class TestAblationWidth:
    @pytest.mark.parametrize("variant", ABLATION_VARIANTS)
    def test_arm_trains_at_budget_rollout_width(self, monkeypatch, variant):
        """Every ablation arm hands the budget's rollout width to its
        trainer (``repro.cli ablations --batch-size N``)."""
        captured = {}

        class Captured(Exception):
            pass

        def fake_trainer(env, config):
            captured["config"] = config
            raise Captured()

        stub = object()
        monkeypatch.setattr(
            ablations,
            "build_evaluators",
            lambda spec, budget, cache_dir: {
                "fast_model": stub,
                "reward_fast": RewardCalculator(stub),
                "reward_solver": RewardCalculator(stub),
            },
        )
        monkeypatch.setattr(ablations, "RLPlannerTrainer", fake_trainer)
        budget = ExperimentBudget(rl_epochs=1, rollout_batch_size=5)
        with pytest.raises(Captured):
            ablations.run_ablation_arm(variant, budget)
        assert captured["config"].batch_size == 5


class TestGoldenExperiments:
    def test_jobs1_bitwise_faithful_to_sequential_harness(self, tmp_path):
        """The scheduler's in-process ``jobs=1`` path must reproduce the
        pre-scheduler sequential runner bit for bit — all four method
        arms, float-hex comparison.  Regenerate via
        ``scripts/gen_golden_experiments.py`` only for *intentional*
        behavior changes."""
        golden = json.loads(Path(GOLDEN_EXPERIMENTS_PATH).read_text())
        record = run_golden_experiments(tmp_path)
        assert record == golden

    def test_bump_path_bitwise(self, tmp_path):
        """The same four arms on the default reward path (microbump
        wirelength): pins the batched environment's ``evaluate_batch``
        and both multi-chain SA arms where the benchmarks run them.
        Regenerate via ``scripts/gen_golden_experiments.py --bump``
        only for *intentional* behavior changes."""
        golden = json.loads(Path(GOLDEN_EXPERIMENTS_BUMP_PATH).read_text())
        record = run_golden_experiments(tmp_path, use_bump_assignment=True)
        assert record == golden


class TestTable2Mini:
    def test_mini_run_metrics(self, tmp_path):
        config = ThermalConfig(
            rows=24, cols=24, package_margin=8.0, r_convection=0.12
        )
        result = run_table2(
            n_systems=4,
            seed=11,
            thermal_config=config,
            cache_dir=tmp_path,
            position_samples=(3, 3),
        )
        assert result.n_systems == 4
        assert result.metrics["mae"] < 3.0
        # Timing-based: keep the bound loose so CPU contention in CI
        # cannot flake it (the real figure is >100x; see Table II bench).
        assert result.speedup > 3.0
        assert len(result.predictions) == 4
        text = result.format()
        assert "MAE" in text and "speedup" in text
