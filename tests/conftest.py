"""Shared fixtures: a small, fast thermal setup reused across test modules.

The production defaults (64x64 grid, 7x7 characterization) are exercised
by the benchmarks; tests run a coarser configuration so the whole suite
stays fast while covering identical code paths.  The one exception,
multi_gpu's production evaluators, is built once per session and shared
by the modules that pin the shipped kernels on it.
"""

import pytest

from repro.chiplet import Chiplet, ChipletSystem, Interposer, Net
from repro.experiments.runner import ExperimentBudget, build_evaluators
from repro.systems import get_benchmark
from repro.thermal import (
    FastThermalModel,
    GridThermalSolver,
    ThermalConfig,
    characterize_tables,
)


@pytest.fixture(scope="session")
def small_interposer():
    return Interposer(30.0, 30.0)


@pytest.fixture(scope="session")
def small_config():
    return ThermalConfig(rows=32, cols=32, package_margin=8.0)


@pytest.fixture(scope="session")
def small_solver(small_interposer, small_config):
    return GridThermalSolver(
        small_interposer, small_config, reuse_factorization=True
    )


@pytest.fixture(scope="session")
def small_system(small_interposer):
    return ChipletSystem(
        "small",
        small_interposer,
        (
            Chiplet("hot", 8.0, 8.0, 60.0, kind="gpu"),
            Chiplet("warm", 6.0, 6.0, 15.0, kind="cpu"),
            Chiplet("cold", 4.0, 6.0, 3.0, kind="io"),
        ),
        (
            Net("hot", "warm", wires=512, name="hw"),
            Net("warm", "cold", wires=128, name="wc"),
        ),
    )


@pytest.fixture(scope="session")
def small_tables(small_interposer, small_config, small_solver, small_system):
    sizes = []
    for chiplet in small_system.chiplets:
        sizes.append((chiplet.width, chiplet.height))
        if chiplet.rotatable:
            sizes.append((chiplet.height, chiplet.width))
    return characterize_tables(
        small_interposer,
        sizes,
        small_config,
        position_samples=(5, 5),
        solver=small_solver,
    )


@pytest.fixture(scope="session")
def small_fast_model(small_tables, small_config):
    return FastThermalModel(small_tables, small_config)


@pytest.fixture(scope="session")
def multi_gpu_production(tmp_path_factory):
    """multi_gpu's production evaluators: the default budget and the
    bundled reward (bump-assigned wirelength), characterized once."""
    return build_evaluators(
        get_benchmark("multi_gpu"),
        ExperimentBudget(),
        tmp_path_factory.mktemp("multi_gpu_tables"),
    )
