"""Micro-benchmarks of the performance-critical components.

Not a paper table, but the numbers that explain the tables: microbump
assignment, action-mask computation, observation encoding, the CNN
forward/backward pass and a full PPO update.
"""

import numpy as np
import pytest

from repro.agent import ActorCritic
from repro.baselines.random_search import random_legal_placement
from repro.bumps import BumpAssigner, estimate_wirelength
from repro.env import ObservationBuilder, feasible_cells
from repro.geometry import PlacementGrid
from repro.nn import Adam
from repro.reward import RewardCalculator
from repro.rl import Episode, PPOConfig, PPOUpdater, RolloutBuffer
from repro.systems import get_benchmark
from repro.utils import new_rng


@pytest.fixture(scope="module")
def placed_multi_gpu():
    spec = get_benchmark("multi_gpu")
    placement = random_legal_placement(
        spec.system, new_rng(1), allow_rotation=False
    )
    return spec, placement


def test_bench_bump_assignment_greedy(benchmark, placed_multi_gpu):
    """Per-reward-evaluation bump assignment, as the reward path runs it."""
    spec, placement = placed_multi_gpu
    assigner = RewardCalculator(None, spec.reward_config).assigner
    assignment = benchmark(assigner.assign, placement)
    assert assignment.total_wirelength > 0


@pytest.mark.parametrize("system", ["multi_gpu", "ascend910", "cpu_dram"])
def test_bench_wirelength_many(benchmark, system):
    """Bump-assigned wirelength of 16 placements of a Table I system."""
    spec = get_benchmark(system)
    rng = new_rng(2)
    placements = [random_legal_placement(spec.system, rng) for _ in range(16)]
    calculator = RewardCalculator(None, spec.reward_config)
    wirelengths = benchmark(calculator.wirelength_many, placements)
    assert wirelengths.shape == (16,) and (wirelengths > 0).all()


def test_bench_bump_assignment_hungarian(benchmark, placed_multi_gpu):
    _, placement = placed_multi_gpu
    assigner = BumpAssigner(wire_group_size=8, method="hungarian")
    assignment = benchmark(assigner.assign, placement)
    assert assignment.total_wirelength > 0


def test_bench_wirelength_estimate(benchmark, placed_multi_gpu):
    _, placement = placed_multi_gpu
    total = benchmark(estimate_wirelength, placement)
    assert total > 0


def test_bench_action_mask(benchmark, placed_multi_gpu):
    spec, placement = placed_multi_gpu
    grid = PlacementGrid(55.0, 55.0, 32, 32)
    rects = list(placement.footprints().values())[:8]
    mask = benchmark(feasible_cells, grid, 12.0, 12.0, rects, 0.2)
    assert mask.shape == (32, 32)


def test_bench_observation_encoding(benchmark, placed_multi_gpu):
    spec, placement = placed_multi_gpu
    grid = PlacementGrid(55.0, 55.0, 32, 32)
    builder = ObservationBuilder(spec.system, grid)
    obs = benchmark(builder.build, placement, "gpu0")
    assert obs.shape == builder.shape


def test_bench_network_forward(benchmark):
    rng = np.random.default_rng(0)
    net = ActorCritic((7, 32, 32), 1024, rng=rng)
    obs = rng.normal(size=(16, 7, 32, 32))
    masks = np.ones((16, 1024), bool)

    def forward():
        return net.evaluate(obs, masks)

    dist, values = benchmark(forward)
    assert values.shape == (16,)


def test_bench_ppo_update(benchmark):
    rng = np.random.default_rng(0)
    net = ActorCritic((7, 24, 24), 576, channels=(8, 16, 16), rng=rng)
    updater = PPOUpdater(
        net, Adam(net.parameters(), lr=3e-4), PPOConfig(minibatch_size=32)
    )
    buffer = RolloutBuffer()
    for _ in range(8):
        episode = Episode()
        for _ in range(8):
            episode.add_step(
                rng.normal(size=(7, 24, 24)),
                np.ones(576, bool),
                int(rng.integers(576)),
                -6.3,
                0.0,
            )
        episode.set_terminal_reward(-10.0)
        buffer.add_episode(episode)
    batch = buffer.compute()
    stats = benchmark.pedantic(
        updater.update, args=(batch, rng), rounds=2, iterations=1
    )
    assert stats["n_updates"] >= 1
