"""The benchmark legs measure the reward config the bundled specs ship.

Each bench under ``benchmarks/`` builds its scenario through
``scenario(system, budget, cache_dir)``; its reward calculator must
carry the spec's own ``reward_config``, whose wirelength comes from
microbump assignment, as in the Table I arms.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentBudget
from repro.systems import get_benchmark

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(
        name, BENCHMARKS_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("bench", ["bench_collect", "bench_baselines"])
def test_scenario_uses_bundled_reward_config(bench, tmp_path):
    module = _load_bench(bench)
    spec, reward = module.scenario(
        "multi_gpu", ExperimentBudget(position_samples=(2, 2)), tmp_path
    )
    assert spec.name == "multi_gpu"
    assert reward.config == get_benchmark("multi_gpu").reward_config
    assert reward.config.use_bump_assignment is True


def test_bench_serve_spells_sa_iters_like_the_cli():
    parser = _load_bench("bench_serve").build_parser()
    assert parser.parse_args(["--sa-iters", "12"]).sa_iters == 12
