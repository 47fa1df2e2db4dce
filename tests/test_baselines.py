"""Tests for the SA engine, the TAP-2.5D placer and random search."""

import numpy as np
import pytest

from repro.baselines import (
    SAConfig,
    SimulatedAnnealing,
    TAP25DConfig,
    TAP25DPlacer,
    random_search,
)
from repro.baselines.random_search import random_legal_placement
from repro.chiplet import Chiplet, ChipletSystem, Interposer
from repro.chiplet.validate import placement_violations, validate_placement
from repro.reward import RewardCalculator, RewardConfig


@pytest.fixture
def calculator(small_fast_model):
    return RewardCalculator(
        small_fast_model, RewardConfig(lambda_wl=1e-4, use_bump_assignment=False)
    )


class TestSAEngine:
    """Anneal a 1D quadratic: state is a float, cost (x-3)^2."""

    @staticmethod
    def _propose(state, rng, progress):
        return state + rng.normal(0, 1.0 * (1 - 0.9 * progress))

    @staticmethod
    def _evaluate(states):
        return np.array([(state - 3.0) ** 2 for state in states])

    def test_finds_minimum(self):
        sa = SimulatedAnnealing(
            self._propose,
            self._evaluate,
            SAConfig(n_iterations=800, seed=0),
        )
        result = sa.run(initial_state=-10.0)
        assert result.best_state == pytest.approx(3.0, abs=0.3)
        assert result.best_cost < 0.1

    def test_monotone_best_cost(self):
        sa = SimulatedAnnealing(
            self._propose, self._evaluate, SAConfig(n_iterations=200, seed=1)
        )
        result = sa.run(0.0)
        best_costs = [h["best_cost"] for h in result.history]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best_costs, best_costs[1:]))

    def test_none_proposals_skipped(self):
        calls = {"n": 0}

        def propose(state, rng, progress):
            calls["n"] += 1
            return None  # always infeasible

        sa = SimulatedAnnealing(
            propose, self._evaluate, SAConfig(n_iterations=50, seed=0)
        )
        result = sa.run(0.0)
        assert result.best_state == 0.0
        # Only the initial evaluation (+ calibration attempts) happened.
        assert result.n_evaluations == 1

    def test_explicit_initial_temperature(self):
        sa = SimulatedAnnealing(
            self._propose,
            self._evaluate,
            SAConfig(n_iterations=100, initial_temperature=10.0, seed=0),
        )
        result = sa.run(0.0)
        assert result.n_evaluations >= 1

    def test_time_limit(self):
        def slow_eval(states):
            import time

            time.sleep(0.01 * len(states))
            return np.array([(state - 3.0) ** 2 for state in states])

        sa = SimulatedAnnealing(
            self._propose,
            slow_eval,
            SAConfig(n_iterations=10_000, time_limit=0.3, seed=0),
        )
        result = sa.run(0.0)
        assert result.elapsed < 5.0
        assert len(result.history) < 10_000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SAConfig(n_iterations=0)
        with pytest.raises(ValueError):
            SAConfig(final_temperature=0.0)


class TestTAP25D:
    def test_initial_placement_legal(self, small_system, calculator):
        placer = TAP25DPlacer(small_system, calculator)
        placement = placer.initial_placement()
        validate_placement(placement)

    def test_proposals_stay_legal(self, small_system, calculator):
        placer = TAP25DPlacer(small_system, calculator)
        placement = placer.initial_placement()
        rng = np.random.default_rng(0)
        accepted = 0
        for _ in range(60):
            candidate = placer.propose(placement, rng, progress=0.2)
            if candidate is None:
                continue
            accepted += 1
            assert not placement_violations(candidate)
        assert accepted > 5  # moves do succeed

    def test_run_improves_over_initial(self, small_system, calculator):
        placer = TAP25DPlacer(
            small_system,
            calculator,
            TAP25DConfig(n_iterations=120, seed=0),
        )
        initial_reward = calculator.evaluate(placer.initial_placement()).reward
        result = placer.run()
        assert result.reward >= initial_reward
        validate_placement(result.placement)
        assert result.n_evaluations > 10

    @pytest.mark.parametrize("n_chains", [1, 4])
    def test_winner_breakdown_carried_out_of_anneal(
        self, small_system, calculator, n_chains
    ):
        """The winner's breakdown comes from the anneal's own scoring:
        no evaluation beyond the anneal's, and it equals a fresh
        evaluation of the winning placement field for field."""
        placer = TAP25DPlacer(
            small_system,
            calculator,
            TAP25DConfig(n_iterations=40, seed=3, n_chains=n_chains),
        )
        before = calculator.evaluation_count
        result = placer.run()
        assert calculator.evaluation_count - before == result.n_evaluations
        assert result.breakdown == calculator.evaluate(result.placement)

    def test_move_mix_validation(self):
        with pytest.raises(ValueError):
            TAP25DConfig(displace_fraction=0.9, swap_fraction=0.3)

    def test_time_matched_budget(self, small_system, calculator):
        placer = TAP25DPlacer(
            small_system,
            calculator,
            TAP25DConfig(n_iterations=100_000, time_limit=1.0, seed=0),
        )
        result = placer.run()
        assert result.elapsed < 15.0


class TestRandomSearch:
    def test_legal_samples(self, small_system):
        rng = np.random.default_rng(0)
        for _ in range(5):
            placement = random_legal_placement(small_system, rng)
            validate_placement(placement)

    def test_overpacked_raises(self):
        system = ChipletSystem(
            "full",
            Interposer(10, 10, min_spacing=0.5),
            tuple(Chiplet(f"c{i}", 4.5, 4.5, 1.0) for i in range(4)),
        )
        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError):
            random_legal_placement(system, rng, max_tries=20)

    def test_search_returns_best(self, small_system, calculator):
        result = random_search(small_system, calculator, n_samples=10, seed=0)
        assert result.n_evaluations == 10
        validate_placement(result.placement)
        # Re-evaluating the winner reproduces its recorded reward.
        again = calculator.evaluate(result.placement)
        assert again.reward == pytest.approx(result.reward)

    def test_more_samples_never_worse(self, small_system, calculator):
        few = random_search(small_system, calculator, n_samples=3, seed=5)
        many = random_search(small_system, calculator, n_samples=15, seed=5)
        assert many.reward >= few.reward
