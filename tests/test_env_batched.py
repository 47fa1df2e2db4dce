"""Tests for the lockstep batched environment and its vectorized layers.

The load-bearing property throughout: everything the batched path
produces (masks, observations, placements) is *identical* to the
stateless per-episode references (``ObservationBuilder.build``,
``feasible_cells``) — batching is an execution strategy, not a behavior
change.  Terminal rewards go through the vectorized thermal evaluator
and are compared with ``RewardCalculator.evaluate`` to a tight
numerical tolerance instead of bitwise.
"""

import numpy as np
import pytest

from repro.agent import ActorCritic
from repro.chiplet import Chiplet, ChipletSystem, Interposer, Placement
from repro.env import (
    BatchedFloorplanEnv,
    EnvConfig,
    ObservationBuilder,
    feasible_cells,
    feasible_cells_batch,
)
from repro.geometry import PlacementGrid, Rect
from repro.reward import RewardCalculator, RewardConfig
from repro.systems import synthetic_system


@pytest.fixture
def calc(small_fast_model):
    return RewardCalculator(
        small_fast_model, RewardConfig(lambda_wl=1e-4, use_bump_assignment=False)
    )


@pytest.fixture
def benv(small_system, calc):
    return BatchedFloorplanEnv(small_system, calc, EnvConfig(grid_size=15))


def _random_rects(rng, n_rects, extent=30.0):
    rects = []
    for _ in range(n_rects):
        w = float(rng.uniform(2.0, 12.0))
        h = float(rng.uniform(2.0, 12.0))
        x = float(rng.uniform(-2.0, extent - 2.0))
        y = float(rng.uniform(-2.0, extent - 2.0))
        rects.append(Rect(x, y, w, h))
    return rects


class TestFeasibleCellsBatch:
    def test_matches_sequential_on_random_inputs(self):
        """Property: batched output == per-episode output, cell for cell."""
        rng = np.random.default_rng(0)
        for _ in range(25):
            rows = int(rng.integers(4, 20))
            cols = int(rng.integers(4, 20))
            grid = PlacementGrid(30.0, 30.0, rows, cols)
            die_w = float(rng.uniform(1.0, 20.0))
            die_h = float(rng.uniform(1.0, 20.0))
            spacing = float(rng.uniform(0.0, 1.0))
            placed_lists = [
                _random_rects(rng, int(rng.integers(0, 5)))
                for _ in range(int(rng.integers(1, 7)))
            ]
            batched = feasible_cells_batch(
                grid, die_w, die_h, placed_lists, spacing
            )
            for i, placed in enumerate(placed_lists):
                expected = feasible_cells(grid, die_w, die_h, placed, spacing)
                assert np.array_equal(batched[i], expected)

    def test_matches_sequential_on_random_systems(self):
        """Same property driven by real synthetic-system footprints."""
        for seed in range(5):
            system = synthetic_system(seed=seed)
            grid = PlacementGrid(
                system.interposer.width, system.interposer.height, 16, 16
            )
            rng = np.random.default_rng(seed)
            spacing = system.interposer.min_spacing
            placed_lists = []
            for _ in range(4):
                chosen = [
                    c
                    for c in system.chiplets
                    if rng.random() < 0.6
                ]
                placed_lists.append(
                    [
                        c.footprint(
                            float(rng.uniform(0, grid.width - c.width)),
                            float(rng.uniform(0, grid.height - c.height)),
                        )
                        for c in chosen
                    ]
                )
            die = system.chiplets[0]
            batched = feasible_cells_batch(
                grid, die.width, die.height, placed_lists, spacing
            )
            for i, placed in enumerate(placed_lists):
                expected = feasible_cells(
                    grid, die.width, die.height, placed, spacing
                )
                assert np.array_equal(batched[i], expected)

    def test_empty_batch(self):
        grid = PlacementGrid(30.0, 30.0, 8, 8)
        assert feasible_cells_batch(grid, 5.0, 5.0, []).shape == (0, 8, 8)

    def test_oversized_die_all_infeasible(self):
        grid = PlacementGrid(30.0, 30.0, 8, 8)
        masks = feasible_cells_batch(grid, 31.0, 5.0, [[], []])
        assert masks.shape == (2, 8, 8)
        assert not masks.any()


class TestBatchedEnvEquivalence:
    @staticmethod
    def _reference_mask(env, placement, name):
        """Flat mask for ``name`` from per-episode ``feasible_cells``."""
        chiplet = env.system.chiplet(name)
        placed = [placement.footprint(n) for n in placement.placed_names]
        spacing = env.system.interposer.min_spacing
        upright = feasible_cells(
            env.grid, chiplet.width, chiplet.height, placed, spacing
        ).ravel()
        if not env.config.allow_rotation:
            return upright
        if chiplet.rotatable:
            rotated = feasible_cells(
                env.grid, chiplet.height, chiplet.width, placed, spacing
            ).ravel()
        else:
            rotated = np.zeros_like(upright)
        return np.concatenate([upright, rotated])

    def _rollout_pair(self, system, calc, config, n_episodes, seed):
        """Step a batched env and check every live row against the
        stateless references: ``ObservationBuilder.build``, per-episode
        ``feasible_cells`` masks and ``RewardCalculator.evaluate``."""
        rng = np.random.default_rng(seed)
        batched = BatchedFloorplanEnv(system, calc, config)
        builder = ObservationBuilder(system, batched.grid)
        n_cells = batched.grid.n_cells
        reference = [Placement(system) for _ in range(n_episodes)]
        expected = [None] * n_episodes
        batch_rewards = [None] * n_episodes
        obs_b, masks_b = batched.reset(n_episodes)

        while True:
            live = batched.live_indices
            if len(live) == 0:
                break
            name = batched.current_chiplet_name
            actions = []
            for row, index in enumerate(live):
                assert np.array_equal(
                    obs_b[row], builder.build(reference[index], name)
                )
                assert np.array_equal(
                    masks_b[row],
                    self._reference_mask(batched, reference[index], name),
                )
                actions.append(int(rng.choice(np.flatnonzero(masks_b[row]))))
            result = batched.step(np.array(actions))
            step_index = system.placement_order().index(name) + 1
            for row, index in enumerate(live):
                cell, rotated = actions[row] % n_cells, actions[row] >= n_cells
                x, y = batched.grid.cell_origin(*batched.grid.unflatten(cell))
                reference[index].place(name, x, y, rotated=bool(rotated))
                if step_index == system.n_chiplets:
                    breakdown = calc.evaluate(reference[index])
                    expected[index] = (breakdown.reward, None)
                    continue
                next_name = system.placement_order()[step_index]
                if not self._reference_mask(
                    batched, reference[index], next_name
                ).any():
                    expected[index] = (config.deadlock_penalty, True)
            for index, reward, info in result.finished:
                batch_rewards[index] = (reward, info)
            obs_b, masks_b = result.observations, result.masks

        for index in range(n_episodes):
            b_reward, b_info = batch_rewards[index]
            e_reward, e_deadlock = expected[index]
            # Terminal rewards: vectorized vs scalar thermal evaluation.
            assert b_reward == pytest.approx(e_reward, rel=1e-9, abs=1e-9)
            assert b_info.get("deadlock") == e_deadlock
            assert (
                b_info["placement"].positions == reference[index].positions
            )

    def test_lockstep_matches_sequential(self, small_system, calc):
        self._rollout_pair(
            small_system, calc, EnvConfig(grid_size=15), n_episodes=5, seed=3
        )

    def test_lockstep_matches_sequential_with_rotation(
        self, small_system, calc
    ):
        self._rollout_pair(
            small_system,
            calc,
            EnvConfig(grid_size=12, allow_rotation=True),
            n_episodes=4,
            seed=11,
        )

    def test_observations_match_stateless_builder(self, small_system, calc):
        """The incremental channels equal a from-scratch build_batch."""
        env = BatchedFloorplanEnv(small_system, calc, EnvConfig(grid_size=15))
        rng = np.random.default_rng(7)
        obs, masks = env.reset(4)
        while True:
            live = env.live_indices
            if len(live) == 0:
                break
            reference = env.observation_builder.build_batch(
                [env._placements[i] for i in live], env.current_chiplet_name
            )
            assert np.array_equal(obs, reference)
            for row, i in enumerate(live):
                single = env.observation_builder.build(
                    env._placements[i], env.current_chiplet_name
                )
                assert np.array_equal(obs[row], single)
            actions = [
                int(rng.choice(np.flatnonzero(masks[row])))
                for row in range(len(live))
            ]
            result = env.step(np.array(actions))
            obs, masks = result.observations, result.masks


class TestMaskedSampling:
    def test_masked_action_never_sampled(self, small_system, calc):
        """100 random batched steps never emit a masked action."""
        env = BatchedFloorplanEnv(small_system, calc, EnvConfig(grid_size=12))
        net = ActorCritic(
            env.observation_shape,
            env.n_actions,
            channels=(4, 4, 4),
            rng=np.random.default_rng(0),
        )
        rngs = [np.random.default_rng(100 + i) for i in range(6)]
        static = env.observation_builder.STATIC_CHANNELS
        steps = 0
        obs, masks = env.reset(6)
        while steps < 100:
            live = env.live_indices
            if len(live) == 0:
                obs, masks = env.reset(6)
                live = env.live_indices
            actions, log_probs, values = net.act_batch(
                obs,
                masks,
                [rngs[i] for i in live],
                static_channels=static,
            )
            for row in range(len(live)):
                assert masks[row, actions[row]], "sampled a masked action"
                assert log_probs[row] <= 0.0
                assert np.isfinite(values[row])
            result = env.step(actions)
            obs, masks = result.observations, result.masks
            steps += 1


class TestBatchedEnvEdgeCases:
    def test_step_before_reset(self, small_system, calc):
        env = BatchedFloorplanEnv(small_system, calc, EnvConfig(grid_size=10))
        with pytest.raises(RuntimeError):
            env.step(np.array([0]))

    def test_reset_validates_count(self, benv):
        with pytest.raises(ValueError):
            benv.reset(0)

    def test_wrong_action_count(self, benv):
        benv.reset(3)
        with pytest.raises(ValueError, match="actions"):
            benv.step(np.array([0, 0]))

    def test_out_of_range_action(self, benv):
        benv.reset(2)
        with pytest.raises(ValueError, match="range"):
            benv.step(np.array([0, benv.n_actions]))

    def test_masked_action_rejected(self, benv):
        _, masks = benv.reset(2)
        infeasible = np.flatnonzero(~masks[1])
        if len(infeasible):
            feasible = int(np.flatnonzero(masks[0])[0])
            with pytest.raises(ValueError, match="masked"):
                benv.step(np.array([feasible, int(infeasible[0])]))

    def test_partial_deadlock_keeps_batch_running(self, small_interposer):
        """One episode deadlocks; the others keep stepping."""
        system = ChipletSystem(
            "dead",
            small_interposer,
            (
                Chiplet("big", 28.0, 14.0, 1.0),
                Chiplet("wide", 28.0, 14.0, 1.0),
            ),
        )
        env = BatchedFloorplanEnv(
            system, _StubCalculator(), EnvConfig(grid_size=10)
        )
        obs, masks = env.reset(3)
        grid = env.grid
        # Episode 0 places mid-height (starves the second die); episodes
        # 1 and 2 place at the bottom edge (leaves room above).
        deadlocking = grid.flat_index(3, 0)
        safe = grid.flat_index(0, 0)
        assert masks[0, deadlocking] and masks[1, safe]
        result = env.step(np.array([deadlocking, safe, safe]))
        assert len(result.finished) == 1
        index, reward, info = result.finished[0]
        assert index == 0
        assert info["deadlock"]
        assert info["unplaceable"] == "wide"
        assert reward == env.config.deadlock_penalty
        assert list(result.live_indices) == [1, 2]
        # Survivors finish with real terminal evaluations.
        final = env.step(
            np.array(
                [
                    int(np.flatnonzero(result.masks[row])[0])
                    for row in range(2)
                ]
            )
        )
        assert final.all_done
        assert len(final.finished) == 2
        assert all("breakdown" in info for _, _, info in final.finished)


class _StubCalculator:
    """Terminal evaluator that never touches thermal tables."""

    def evaluate(self, placement):
        from repro.reward import RewardBreakdown

        return RewardBreakdown(
            reward=-1.0,
            wirelength=0.0,
            max_temperature_c=0.0,
            thermal_penalty=0.0,
        )

    def evaluate_batch(self, placements):
        return [self.evaluate(p) for p in placements]


class TestObservationBuilderBatch:
    def test_build_batch_matches_build(self, small_system):
        grid = PlacementGrid(30, 30, 15, 15)
        builder = ObservationBuilder(small_system, grid)
        rng = np.random.default_rng(5)
        from repro.chiplet import Placement

        placements = []
        for _ in range(4):
            p = Placement(small_system)
            for name in ("hot", "warm"):
                if rng.random() < 0.8:
                    c = small_system.chiplet(name)
                    p.place(
                        name,
                        float(rng.uniform(0, 30 - c.width)),
                        float(rng.uniform(0, 30 - c.height)),
                    )
            placements.append(p)
        stacked = builder.build_batch(placements, "cold")
        for i, p in enumerate(placements):
            assert np.array_equal(stacked[i], builder.build(p, "cold"))

    def test_static_channels_are_batch_constant(self, small_system, calc):
        env = BatchedFloorplanEnv(small_system, calc, EnvConfig(grid_size=12))
        obs, masks = env.reset(4)
        rng = np.random.default_rng(2)
        while True:
            live = env.live_indices
            if len(live) == 0:
                break
            for channel in ObservationBuilder.STATIC_CHANNELS:
                for row in range(1, len(live)):
                    assert np.array_equal(obs[row, channel], obs[0, channel])
            actions = [
                int(rng.choice(np.flatnonzero(masks[row])))
                for row in range(len(live))
            ]
            result = env.step(np.array(actions))
            obs, masks = result.observations, result.masks
