"""Tests for the benchmark system definitions and the synthetic generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.random_search import random_legal_placement
from repro.chiplet.validate import validate_system
from repro.systems import (
    benchmark_names,
    get_benchmark,
    synthetic_system,
    synthetic_thermal_dataset,
)
from repro.systems.synthetic import DATASET_INTERPOSER, DATASET_SIZES


def _is_connected(system, names) -> bool:
    """Whether the nets join ``names`` into one component, counting only
    nets with both ends among ``names`` (breadth-first search)."""
    names = set(names)
    neighbours = {name: set() for name in names}
    for net in system.nets:
        if net.src in names and net.dst in names:
            neighbours[net.src].add(net.dst)
            neighbours[net.dst].add(net.src)
    start = next(iter(names))
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [n for node in frontier for n in neighbours[node] - seen]
        seen.update(frontier)
    return seen == names

class TestRegistry:
    def test_names(self):
        names = benchmark_names()
        assert "multi_gpu" in names
        assert "cpu_dram" in names
        assert "ascend910" in names
        assert "synthetic1" in names and "synthetic5" in names

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_benchmark("nonexistent")


@pytest.mark.parametrize("name", ["multi_gpu", "cpu_dram", "ascend910"])
class TestNamedBenchmarks:
    def test_structurally_valid(self, name):
        spec = get_benchmark(name)
        validate_system(spec.system)

    def test_placeable(self, name):
        spec = get_benchmark(name)
        rng = np.random.default_rng(0)
        placement = random_legal_placement(spec.system, rng)
        assert placement.is_complete

    def test_netlist_connected_power_dies(self, name):
        spec = get_benchmark(name)
        powered = [c.name for c in spec.system.chiplets if c.power > 0]
        assert _is_connected(spec.system, powered)

    def test_paper_reference_complete(self, name):
        spec = get_benchmark(name)
        for method in (
            "RLPlanner",
            "RLPlanner(RND)",
            "TAP-2.5D(HotSpot)",
            "TAP-2.5D*(FastThermal)",
        ):
            assert method in spec.paper_reference
            assert "reward" in spec.paper_reference[method]

    def test_reward_config_sane(self, name):
        spec = get_benchmark(name)
        assert 0 < spec.reward_config.lambda_wl < 1e-2
        assert spec.reward_config.t_limit == 85.0


class TestBenchmarkShapes:
    def test_multi_gpu_inventory(self):
        system = get_benchmark("multi_gpu").system
        kinds = [c.kind for c in system.chiplets]
        assert kinds.count("gpu") == 4
        assert kinds.count("hbm") == 8
        assert len(system.nets) == 6 + 8

    def test_ascend_dummies_unpowered(self):
        system = get_benchmark("ascend910").system
        dummies = [c for c in system.chiplets if c.kind == "dummy"]
        assert len(dummies) == 2
        assert all(d.power == 0.0 for d in dummies)

    def test_cpu_dram_memory_channels(self):
        system = get_benchmark("cpu_dram").system
        channels = [n for n in system.nets if n.name.startswith("c") and "d" in n.name]
        assert len(channels) == 4


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = synthetic_system(seed=42)
        b = synthetic_system(seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        assert synthetic_system(seed=1) != synthetic_system(seed=2)

    def test_cases_fixed(self):
        spec1 = get_benchmark("synthetic1")
        spec1_again = get_benchmark("synthetic1")
        assert spec1.system == spec1_again.system

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_generated_systems_valid_and_placeable(self, seed):
        system = synthetic_system(seed=seed)
        validate_system(system)
        assert system.n_chiplets >= 2
        assert system.utilization <= 0.56
        # Sizes come from the quantized set.
        for chiplet in system.chiplets:
            assert chiplet.width in DATASET_SIZES
            assert chiplet.height in DATASET_SIZES
        # Netlist is connected over all dies.
        assert _is_connected(system, system.chiplet_names)

    def test_dataset_yields_legal_placements(self):
        from repro.chiplet.validate import validate_placement

        count = 0
        for system, placement in synthetic_thermal_dataset(5, seed=3):
            assert system.interposer == DATASET_INTERPOSER
            validate_placement(placement)
            count += 1
        assert count == 5

    def test_dataset_without_placements(self):
        systems = list(synthetic_thermal_dataset(3, seed=3, with_placements=False))
        assert len(systems) == 3
        assert all(hasattr(s, "chiplets") for s in systems)
