"""Tests for the floorplanning environment: masks, observations, episodes."""

import numpy as np
import pytest

from repro.chiplet import Chiplet, ChipletSystem, Interposer, Net, Placement
from repro.chiplet.validate import validate_placement
from repro.env import (
    BatchedFloorplanEnv,
    EnvConfig,
    ObservationBuilder,
    feasible_cells,
)
from repro.geometry import PlacementGrid, Rect
from repro.reward import RewardCalculator, RewardConfig


@pytest.fixture
def env(small_system, small_fast_model):
    calc = RewardCalculator(
        small_fast_model, RewardConfig(lambda_wl=1e-4, use_bump_assignment=False)
    )
    return BatchedFloorplanEnv(small_system, calc, EnvConfig(grid_size=15))


class TestFeasibleCells:
    def test_empty_interposer_bounds_only(self):
        grid = PlacementGrid(30, 30, 15, 15)  # 2 mm cells
        mask = feasible_cells(grid, 10.0, 10.0, [])
        # Origins up to 20 mm -> cols 0..10 inclusive.
        assert mask[:11, :11].all()
        assert not mask[11:, :].any()
        assert not mask[:, 11:].any()

    def test_oversized_die_infeasible(self):
        grid = PlacementGrid(30, 30, 15, 15)
        assert not feasible_cells(grid, 31.0, 5.0, []).any()

    def test_placed_die_blocks_neighbourhood(self):
        grid = PlacementGrid(30, 30, 15, 15)
        placed = [Rect(10, 10, 10, 10)]
        mask = feasible_cells(grid, 6.0, 6.0, placed)
        # Origin (10,10) overlaps; origin (2,2) does not (2+6=8 < 10).
        assert not mask[5, 5]
        assert mask[1, 1]
        # Origin (16, 16) within placed rect -> blocked; (20, 20) touches
        # the placed die's corner exactly -> allowed (no overlap).
        assert not mask[8, 8]
        assert mask[10, 10]

    def test_spacing_shrinks_feasibility(self):
        grid = PlacementGrid(30, 30, 15, 15)
        placed = [Rect(10, 10, 10, 10)]
        no_gap = feasible_cells(grid, 6.0, 6.0, placed, min_spacing=0.0)
        gap = feasible_cells(grid, 6.0, 6.0, placed, min_spacing=1.0)
        assert gap.sum() < no_gap.sum()
        # (20, 20) is flush against the die: legal without spacing only.
        assert no_gap[10, 10] and not gap[10, 10]

    def test_every_masked_cell_is_actually_legal(self, small_system):
        grid = PlacementGrid(30, 30, 10, 10)
        placed = [Rect(3, 3, 9, 9), Rect(18, 15, 8, 8)]
        spacing = 0.5
        mask = feasible_cells(grid, 7.0, 5.0, placed, min_spacing=spacing)
        for row in range(10):
            for col in range(10):
                if not mask[row, col]:
                    continue
                x, y = grid.cell_origin(row, col)
                rect = Rect(x, y, 7.0, 5.0)
                assert rect.x2 <= 30 and rect.y2 <= 30
                for other in placed:
                    assert not rect.overlaps(other)
                    assert rect.gap(other) >= spacing - 1e-9


class TestObservationBuilder:
    def test_channel_semantics(self, small_system):
        grid = PlacementGrid(30, 30, 15, 15)
        builder = ObservationBuilder(small_system, grid)
        placement = Placement(small_system)
        placement.place("hot", 0, 0)
        obs = builder.build(placement, "warm")
        assert obs.shape == builder.shape
        # Occupancy marks the hot die's cells.
        assert obs[0, 0, 0] > 0.9
        assert obs[0, -1, -1] == 0.0
        # Power channel: hot die has the max density -> 1.0 at its cells.
        assert obs[1].max() == pytest.approx(1.0)
        # Connectivity: hot-warm share a net -> marked.
        assert obs[2].max() > 0.0
        # Constant channels.
        assert np.all(obs[3] == small_system.chiplet("warm").width / 30)
        assert np.all(obs[6] == 1.0 / 3.0)

    def test_no_connectivity_when_unrelated(self, small_system):
        grid = PlacementGrid(30, 30, 15, 15)
        builder = ObservationBuilder(small_system, grid)
        placement = Placement(small_system)
        placement.place("cold", 0, 0)
        # hot shares no net with cold in the fixture system.
        obs = builder.build(placement, "hot")
        assert obs[2].max() == 0.0

    def test_values_bounded(self, small_system):
        grid = PlacementGrid(30, 30, 15, 15)
        builder = ObservationBuilder(small_system, grid)
        placement = Placement(small_system)
        placement.place("hot", 10, 10)
        placement.place("warm", 0, 22)
        obs = builder.build(placement, "cold")
        assert obs.min() >= 0.0
        assert obs.max() <= 1.0 + 1e-9


class TestFloorplanEnv:
    """Single-episode behavior: a lockstep batch of one."""

    def test_reset_shapes(self, env):
        obs, mask = env.reset(1)
        assert obs.shape == (1,) + env.observation_shape
        assert mask.shape == (1, env.n_actions)
        assert mask.any()

    def test_placement_order_largest_first(self, env):
        env.reset(1)
        assert env.current_chiplet_name == "hot"  # 8x8 is the largest

    def test_full_episode_legal_and_rewarded(self, env):
        obs, mask = env.reset(1)
        rng = np.random.default_rng(0)
        done = False
        steps = 0
        while not done:
            action = int(rng.choice(np.flatnonzero(mask[0])))
            result = env.step([action])
            done = result.all_done
            if not done:
                obs, mask = result.observations, result.masks
            steps += 1
        assert steps == env.system.n_chiplets
        [(index, reward, info)] = result.finished
        assert index == 0
        assert reward < 0.0
        assert "breakdown" in info
        validate_placement(info["placement"])

    def test_masked_action_rejected(self, env):
        _, mask = env.reset(1)
        infeasible = (
            int(np.flatnonzero(~mask[0])[0]) if (~mask[0]).any() else None
        )
        if infeasible is not None:
            with pytest.raises(ValueError, match="masked"):
                env.step([infeasible])

    def test_out_of_range_action_rejected(self, env):
        env.reset(1)
        with pytest.raises(ValueError, match="range"):
            env.step([env.n_actions])

    def test_step_before_reset_rejected(self, small_system, small_fast_model):
        calc = RewardCalculator(small_fast_model)
        env2 = BatchedFloorplanEnv(small_system, calc, EnvConfig(grid_size=10))
        with pytest.raises(RuntimeError):
            env2.step([0])

    def test_deadlock_detection(self, small_fast_model, small_interposer):
        # Dies sized so a bad first move can starve the second.
        system = ChipletSystem(
            "dead",
            small_interposer,
            (
                Chiplet("big", 28.0, 14.0, 1.0),
                Chiplet("wide", 28.0, 14.0, 1.0),
            ),
        )
        calc = _StubCalculator()
        env2 = BatchedFloorplanEnv(system, calc, EnvConfig(grid_size=10))
        _, mask = env2.reset(1)
        # Place "big" mid-height: leaves < 14 mm above and below.
        grid = env2.grid
        row = 3  # origin y = 9 -> occupies 9..23 on a 30 tall region
        action = grid.flat_index(row, 0)
        assert mask[0, action]
        result = env2.step([action])
        assert result.all_done
        [(_, reward, info)] = result.finished
        assert info.get("deadlock")
        assert reward == env2.config.deadlock_penalty


class _StubCalculator:
    """RewardCalculator stand-in that never touches thermal models."""

    def evaluate_batch(self, placements):
        raise AssertionError("terminal evaluation should not run on deadlock")
