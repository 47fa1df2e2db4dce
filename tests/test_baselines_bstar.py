"""Tests for the B*-tree floorplanner (paper reference [1])."""

import numpy as np
import pytest

from repro.baselines import BStarConfig, BStarFloorplanner, BStarTree
from repro.chiplet import Chiplet, ChipletSystem, Interposer
from repro.chiplet.validate import placement_violations, validate_placement
from repro.reward import RewardCalculator, RewardConfig


@pytest.fixture
def calculator(small_fast_model):
    return RewardCalculator(
        small_fast_model, RewardConfig(lambda_wl=1e-4, use_bump_assignment=False)
    )


def make_tree(system, seed=0):
    return BStarTree(system, np.random.default_rng(seed))


class TestBStarTree:
    def test_initial_tree_valid(self, small_system):
        tree = make_tree(small_system)
        tree.validate()
        assert tree.n_nodes == small_system.n_chiplets

    def test_pack_produces_complete_placement(self, small_system):
        placement = make_tree(small_system).pack()
        assert placement.is_complete

    def test_pack_respects_spacing(self, small_system):
        placement = make_tree(small_system).pack()
        spacing = small_system.interposer.min_spacing
        rects = list(placement.footprints().values())
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                assert not a.overlaps(b)
                assert a.gap(b) >= spacing - 1e-9

    def test_pack_is_compacted(self, small_system):
        """Left-bottom packing: some die must touch each axis origin."""
        placement = make_tree(small_system).pack()
        rects = list(placement.footprints().values())
        assert min(r.x for r in rects) == pytest.approx(0.0)
        assert min(r.y for r in rects) == pytest.approx(0.0)

    def test_left_child_sits_right_of_parent(self, small_system):
        tree = make_tree(small_system)
        placement = tree.pack()
        spacing = small_system.interposer.min_spacing
        for node in range(tree.n_nodes):
            child = tree.left[node]
            if child == -1:
                continue
            parent_rect = placement.footprint(tree.module[node])
            child_rect = placement.footprint(tree.module[child])
            assert child_rect.x == pytest.approx(
                parent_rect.x2 + spacing, abs=1e-9
            )

    def test_perturbations_keep_tree_valid(self, small_system):
        rng = np.random.default_rng(1)
        tree = make_tree(small_system)
        for _ in range(100):
            move = rng.integers(3)
            if move == 0:
                tree.rotate_random(rng)
            elif move == 1:
                tree.swap_random(rng)
            else:
                tree.move_random(rng)
            tree.validate()
            assert tree.pack().is_complete

    def test_copy_is_independent(self, small_system):
        tree = make_tree(small_system)
        clone = tree.copy()
        clone.rotated[0] = not clone.rotated[0]
        assert tree.rotated[0] != clone.rotated[0]

    def test_swap_changes_modules(self, small_system):
        rng = np.random.default_rng(2)
        tree = make_tree(small_system)
        before = list(tree.module)
        assert tree.swap_random(rng)
        assert tree.module != before
        assert sorted(tree.module) == sorted(before)


class TestBStarFloorplanner:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BStarConfig(rotate_fraction=0.5, swap_fraction=0.5, move_fraction=0.5)

    def test_run_produces_legal_floorplan(self, small_system, calculator):
        planner = BStarFloorplanner(
            small_system, calculator, BStarConfig(n_iterations=60, seed=0)
        )
        result = planner.run()
        validate_placement(result.placement)
        assert result.reward < 0.0
        assert result.n_evaluations > 5

    @pytest.mark.parametrize("n_chains", [1, 4])
    def test_winner_breakdown_carried_out_of_anneal(
        self, small_system, calculator, n_chains
    ):
        """The winning tree's breakdown comes from the anneal's own
        scoring: no evaluation beyond the anneal's, and it equals a
        fresh evaluation of the winning packing field for field."""
        planner = BStarFloorplanner(
            small_system,
            calculator,
            BStarConfig(n_iterations=40, seed=3, n_chains=n_chains),
        )
        before = calculator.evaluation_count
        result = planner.run()
        assert calculator.evaluation_count - before == result.n_evaluations
        assert result.breakdown == calculator.evaluate(result.placement)

    def test_compaction_tradeoff_vs_spread(self, small_system, calculator):
        """The compacted baseline should run hotter than a spread layout."""
        planner = BStarFloorplanner(
            small_system, calculator, BStarConfig(n_iterations=40, seed=0)
        )
        result = planner.run()
        from repro.baselines import random_search

        spread = random_search(small_system, calculator, n_samples=20, seed=1)
        # Compacted packing concentrates the dies in one corner; its
        # hottest die should be no cooler than the best spread layout's.
        assert (
            result.breakdown.max_temperature_c
            >= spread.breakdown.max_temperature_c - 1.0
        )

    def test_infeasible_system_raises(self, calculator, small_fast_model):
        # Dies that fit individually but never as one compacted block.
        system = ChipletSystem(
            "nofit",
            Interposer(10, 10, min_spacing=3.0),
            (
                Chiplet("a", 6, 6, 1.0),
                Chiplet("b", 6, 6, 1.0),
                Chiplet("c", 6, 6, 1.0),
            ),
        )
        calc = _FakeCalc()
        planner = BStarFloorplanner(system, calc, BStarConfig(n_iterations=5))
        with pytest.raises(RuntimeError, match="no legal compacted"):
            planner.run()


class _FakeCalc:
    def evaluate(self, placement):  # pragma: no cover - never reached
        raise AssertionError("should not evaluate")
