"""Tests for the joint wirelength/temperature reward."""

import math
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.baselines import TAP25DPlacer
from repro.chiplet import Placement
from repro.experiments.runner import ExperimentBudget, build_evaluators
from repro.reward import RewardCalculator, RewardConfig
from repro.systems import get_benchmark


class TestRewardConfig:
    def test_penalty_zero_below_limit(self):
        config = RewardConfig(t_limit=85.0)
        assert config.thermal_penalty(60.0) == 0.0
        assert config.thermal_penalty(85.0) == 0.0

    def test_penalty_positive_above_limit(self):
        config = RewardConfig(t_limit=85.0, alpha=1.0)
        assert config.thermal_penalty(90.0) > 0.0

    def test_penalty_formula(self):
        config = RewardConfig(t_limit=85.0, alpha=1.0, mu=1.0)
        t = 91.15
        expected = (t - 85.0) / (1.0 + math.exp(-(t - 85.0)))
        assert config.thermal_penalty(t) == pytest.approx(expected)

    def test_alpha_shapes_growth(self):
        soft = RewardConfig(t_limit=85.0, alpha=0.5)
        hard = RewardConfig(t_limit=85.0, alpha=2.0)
        assert hard.thermal_penalty(95.0) > soft.thermal_penalty(95.0)

    def test_combine_weights(self):
        config = RewardConfig(lambda_wl=1e-3, mu=2.0, t_limit=85.0, alpha=1.0)
        r = config.combine(10_000.0, 80.0)
        assert r == pytest.approx(-10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RewardConfig(lambda_wl=-1.0)
        with pytest.raises(ValueError):
            RewardConfig(alpha=0.0)

    @given(t=st.floats(0.0, 200.0, allow_nan=False))
    def test_penalty_nonnegative_and_monotone(self, t):
        config = RewardConfig(t_limit=85.0, alpha=1.0)
        p1 = config.thermal_penalty(t)
        p2 = config.thermal_penalty(t + 1.0)
        assert p1 >= 0.0
        assert p2 >= p1

    @given(
        w=st.floats(0.0, 1e6, allow_nan=False),
        t=st.floats(0.0, 150.0, allow_nan=False),
    )
    def test_reward_never_positive(self, w, t):
        config = RewardConfig()
        assert config.combine(w, t) <= 0.0

    def test_penalty_continuous_at_limit(self):
        config = RewardConfig(t_limit=85.0, alpha=1.0)
        eps = 1e-6
        assert config.thermal_penalty(85.0 + eps) == pytest.approx(0.0, abs=1e-5)


class TestRewardCalculator:
    def _legal_placement(self, system):
        p = Placement(system)
        p.place("hot", 1, 1)
        p.place("warm", 1, 20)
        p.place("cold", 20, 1)
        return p

    def test_breakdown_fields(self, small_system, small_fast_model):
        calc = RewardCalculator(small_fast_model)
        breakdown = calc.evaluate(self._legal_placement(small_system))
        assert breakdown.reward <= 0.0
        assert breakdown.wirelength > 0.0
        assert breakdown.max_temperature_c > 45.0
        assert calc.evaluation_count == 1

    def test_estimator_mode_faster_same_sign(self, small_system, small_fast_model):
        placement = self._legal_placement(small_system)
        assigned = RewardCalculator(
            small_fast_model, RewardConfig(use_bump_assignment=True)
        ).evaluate(placement)
        estimated = RewardCalculator(
            small_fast_model, RewardConfig(use_bump_assignment=False)
        ).evaluate(placement)
        assert estimated.reward <= 0.0
        # Same temperature either way; wirelength differs by bounded factor.
        assert estimated.max_temperature_c == pytest.approx(
            assigned.max_temperature_c
        )
        assert 0.3 < estimated.wirelength / assigned.wirelength < 3.0

    def test_solver_and_fast_model_agree(
        self, small_system, small_solver, small_fast_model
    ):
        placement = self._legal_placement(small_system)
        r_ref = RewardCalculator(small_solver).evaluate(placement)
        r_fast = RewardCalculator(small_fast_model).evaluate(placement)
        assert r_fast.max_temperature_c == pytest.approx(
            r_ref.max_temperature_c, abs=1.5
        )
        assert r_fast.wirelength == pytest.approx(r_ref.wirelength)

    def test_spread_placement_cooler_than_clustered(
        self, small_system, small_fast_model
    ):
        """Moving neighbours away from the hot die must cool it down."""
        calc = RewardCalculator(small_fast_model)
        clustered = Placement(small_system)
        clustered.place("hot", 11, 11)
        clustered.place("warm", 19.2, 11)
        clustered.place("cold", 11, 19.2)
        spread = Placement(small_system)
        spread.place("hot", 11, 11)
        spread.place("warm", 24, 0)
        spread.place("cold", 0, 24)
        t_clustered = calc.evaluate(clustered).max_temperature_c
        t_spread = calc.evaluate(spread).max_temperature_c
        assert t_clustered > t_spread


class TestScalarIsBatchRow:
    """Scalar evaluation is a row of the batched one, to the last bit.

    multi_gpu's production evaluators (default budget, bump-assigned
    wirelength) on 16 random-walk placements from the shelf packing.
    Any second scalar kernel would show up here as a last-bit
    difference in some die's temperature.
    """

    N_PLACEMENTS = 16
    WALK_MOVES = 40

    @pytest.fixture(scope="class")
    def production(self, tmp_path_factory):
        spec = get_benchmark("multi_gpu")
        evaluators = build_evaluators(
            spec, ExperimentBudget(), tmp_path_factory.mktemp("tables")
        )
        placer = TAP25DPlacer(spec.system, None)
        rng = np.random.default_rng(16)
        start = placer.initial_placement()
        placements = []
        for _ in range(self.N_PLACEMENTS):
            current = start
            for _ in range(self.WALK_MOVES):
                candidate = placer.propose(current, rng, 0.0)
                if candidate is not None:
                    current = candidate
            placements.append(current)
        return evaluators, placements

    def test_fast_evaluate_is_batch_row(self, production):
        evaluators, placements = production
        fast = evaluators["fast_model"]
        batch = fast.evaluate_batch(placements)
        for i, placement in enumerate(placements):
            scalar = fast.evaluate(placement)
            assert scalar.max_temperature == batch[i].max_temperature, i
            assert scalar.chiplet_temperatures == batch[i].chiplet_temperatures, i

    def test_reward_entry_points_agree(self, production):
        evaluators, placements = production
        calc = evaluators["reward_fast"]
        batch = calc.evaluate_batch(placements)
        many = calc.evaluate_many(placements)
        for i, placement in enumerate(placements):
            scalar = calc.evaluate(placement)
            assert scalar == batch[i], i
            assert scalar.reward == many[i], i


class _StubThermal:
    """Thermal evaluator stub: optionally sets an event, sleeps or raises."""

    def __init__(self, ready=None, delay=0.0, error=None):
        self.ready = ready
        self.delay = delay
        self.error = error
        self.finished = False

    def max_temperatures(self, placements):
        if self.ready is not None:
            self.ready.set()
        time.sleep(self.delay)
        self.finished = True
        if self.error is not None:
            raise self.error
        return np.full(len(placements), 350.0)


class _StubAssigner:
    """Bump assigner stub: optionally waits (once) on an event or raises."""

    WAIT_S = 10.0

    def __init__(self, wait_for=None, error=None):
        self.wait_for = wait_for
        self.error = error
        self.waits = []

    def assign(self, placement):
        if self.wait_for is not None and not self.waits:
            self.waits.append(self.wait_for.wait(self.WAIT_S))
        if self.error is not None:
            raise self.error
        return SimpleNamespace(total_wirelength=1000.0)


ENTRY_POINTS = {
    "evaluate": lambda calc, placements: calc.evaluate(placements[0]),
    "evaluate_batch": lambda calc, placements: calc.evaluate_batch(placements),
    "evaluate_many": lambda calc, placements: calc.evaluate_many(placements),
}


class TestThermalOverlap:
    """The thermal half runs on a worker thread while this thread
    assigns bumps; the worker never outlives the call, and errors
    surface as in a serial evaluation."""

    PLACEMENTS = [object(), object()]

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_halves_run_concurrently(self, entry):
        """The assigner waits for the thermal call to start: serially
        (wirelength first) the wait would time out."""
        ready = threading.Event()
        assigner = _StubAssigner(wait_for=ready)
        calc = RewardCalculator(_StubThermal(ready=ready), assigner=assigner)
        threads = threading.active_count()
        ENTRY_POINTS[entry](calc, self.PLACEMENTS)
        assert assigner.waits == [True]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_thermal_error_is_reraised_unchanged(self, entry):
        error = RuntimeError("thermal failed")
        calc = RewardCalculator(_StubThermal(error=error), assigner=_StubAssigner())
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            ENTRY_POINTS[entry](calc, self.PLACEMENTS)
        assert info.value is error
        assert calc.evaluation_count == 0
        assert threading.active_count() == threads

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_wirelength_error_wins_after_join(self, entry):
        """Both halves raise: the wirelength error reaches the caller,
        and only after the worker has finished."""
        wirelength_error = ValueError("assignment failed")
        thermal = _StubThermal(delay=0.2, error=RuntimeError("thermal failed"))
        calc = RewardCalculator(
            thermal, assigner=_StubAssigner(error=wirelength_error)
        )
        threads = threading.active_count()
        with pytest.raises(ValueError) as info:
            ENTRY_POINTS[entry](calc, self.PLACEMENTS)
        assert info.value is wirelength_error
        assert thermal.finished
        assert threading.active_count() == threads
