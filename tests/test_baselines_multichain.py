"""Multi-chain SA engine, batched reward path, and history columns.

Three equivalence guarantees from PR 2 are locked in here:

1. the single-chain (``n_chains=1``) baselines reproduce the pre-PR
   engines bitwise (``tests/data/golden_baselines.json``);
2. the lockstep multi-chain engine with an exact ``evaluate_many`` is
   bitwise equal to running its chains one at a time (chain ``c`` with
   seed ``seed + c``);
3. the batched reward path (``RewardCalculator.evaluate_many``) agrees
   with scalar evaluation bitwise.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import (
    BStarFloorplanner,
    SAConfig,
    SAHistory,
    SimulatedAnnealing,
    TAP25DConfig,
    TAP25DPlacer,
    random_search,
)
from repro.chiplet.validate import validate_placement
from repro.reward import RewardCalculator, RewardConfig

from golden_baseline_utils import GOLDEN_BASELINES_PATH, run_golden_baselines


def _toy_propose(state, rng, progress):
    return state + rng.normal(0.0, 1.0 * (1.0 - 0.9 * progress))


def _toy_evaluate(state):
    return (state - 3.0) ** 2


def _toy_evaluate_many(states):
    return np.array([_toy_evaluate(state) for state in states])


@pytest.fixture
def calculator(small_fast_model):
    return RewardCalculator(
        small_fast_model, RewardConfig(lambda_wl=1e-4, use_bump_assignment=False)
    )


class TestGoldenSingleChain:
    """n_chains=1 must stay bitwise-faithful to the pre-PR engines."""

    def test_single_chain_matches_pre_pr_golden(self):
        golden_path = Path(__file__).resolve().parent.parent / GOLDEN_BASELINES_PATH
        golden = json.loads(golden_path.read_text())
        record = run_golden_baselines()
        for method in golden:
            assert record[method] == golden[method], (
                f"{method} diverged from the pre-PR sequential engine; "
                "if intentional, rerun scripts/gen_golden_baselines.py"
            )


class TestMultiChainEngine:
    @pytest.mark.parametrize("chains", [2, 5])
    def test_chain_c_equals_sequential_seed_plus_c(self, chains):
        """Every lockstep chain is bitwise one single-chain run."""
        config = SAConfig(n_iterations=250, seed=42, n_chains=chains)
        multi = SimulatedAnnealing(
            _toy_propose, _toy_evaluate_many, config
        ).run_chains([-4.0] * chains)
        assert multi.n_chains == chains
        best_costs = []
        for c in range(chains):
            solo = SimulatedAnnealing(
                _toy_propose,
                _toy_evaluate_many,
                SAConfig(n_iterations=250, seed=42 + c),
            ).run_chains([-4.0])
            assert multi.chain_best_costs[c] == solo.best_cost
            best_costs.append(solo.best_cost)
        assert multi.best_cost == min(best_costs)

    def test_run_dispatches_on_n_chains(self):
        """One initial state per configured chain: a mismatch raises on
        a fresh run and on a resume, a match runs."""
        engine = SimulatedAnnealing(
            _toy_propose,
            _toy_evaluate_many,
            SAConfig(n_iterations=100, seed=0, n_chains=3, checkpoint_every=50),
        )
        for states in ([0.0] * 2, [0.0] * 4):
            with pytest.raises(ValueError, match="n_chains=3"):
                engine.run_chains(states)
        snapshots = []
        multi = engine.run_chains([0.0] * 3, checkpoint_fn=snapshots.append)
        assert multi.n_chains == 3
        assert len(multi.chain_best_costs) == 3
        with pytest.raises(ValueError, match="n_chains=3"):
            engine.run_chains([None] * 2, resume_state=snapshots[0])
        resumed = engine.run_chains([None] * 3, resume_state=snapshots[0])
        assert resumed.best_cost == multi.best_cost

    def test_explicit_initial_temperature_vectorizes(self):
        multi = SimulatedAnnealing(
            _toy_propose,
            _toy_evaluate_many,
            SAConfig(
                n_iterations=100, seed=0, n_chains=4, initial_temperature=5.0
            ),
        ).run_chains([0.0] * 4)
        assert multi.best_cost <= _toy_evaluate(0.0)

    def test_all_none_proposals(self):
        sa = SimulatedAnnealing(
            lambda state, rng, progress: None,
            _toy_evaluate_many,
            SAConfig(n_iterations=50, seed=0, n_chains=3),
        )
        result = sa.run_chains([1.0] * 3)
        # Only the three initial evaluations happened.
        assert result.n_evaluations == 3
        assert result.best_state == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SAConfig(n_chains=0)


class TestSAHistoryColumns:
    def test_columns_and_dict_views(self):
        sa = SimulatedAnnealing(
            _toy_propose,
            _toy_evaluate_many,
            SAConfig(n_iterations=120, seed=1),
        )
        result = sa.run_chains([0.0])
        history = result.history
        assert isinstance(history, SAHistory)
        assert len(history) > 0
        best = history.column("best_cost")
        assert isinstance(best, np.ndarray)
        assert best[-1] == history[-1]["best_cost"]
        assert isinstance(history[0]["iteration"], int)
        # best-cost column is monotone non-increasing.
        assert (np.diff(best) <= 1e-12).all()

    def test_snapshot_with_a_stride_entry_resumes_bitwise(self):
        """Snapshots that also carry a ``stride`` entry (written before
        the history recorded every iteration unconditionally) resume
        bitwise: only the rows are read back."""
        config = SAConfig(
            n_iterations=80, seed=6, n_chains=3, checkpoint_every=20
        )
        engine = SimulatedAnnealing(_toy_propose, _toy_evaluate_many, config)
        snapshots = []
        full = engine.run_chains([0.0] * 3, checkpoint_fn=snapshots.append)
        snapshot = dict(snapshots[1])
        snapshot["history"] = {**snapshot["history"], "stride": 1}
        resumed = engine.run_chains([0.0] * 3, resume_state=snapshot)
        assert resumed.best_cost == full.best_cost
        assert resumed.best_state == full.best_state
        assert np.array_equal(
            resumed.history.column("best_cost"),
            full.history.column("best_cost"),
        )

    def test_history_works_with_csv_writer(self, tmp_path):
        from repro.experiments.curves import history_to_csv

        result = SimulatedAnnealing(
            _toy_propose, _toy_evaluate_many, SAConfig(n_iterations=60, seed=3)
        ).run_chains([0.0])
        path = tmp_path / "history.csv"
        history_to_csv(result.history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == list(SAHistory.FIELDS)
        assert len(lines) == len(result.history) + 1

    def test_slice_access(self):
        result = SimulatedAnnealing(
            _toy_propose, _toy_evaluate_many, SAConfig(n_iterations=60, seed=4)
        ).run_chains([0.0])
        head = result.history[:3]
        assert len(head) == 3
        assert head[0] == result.history[0]


class TestBatchedRewardPath:
    def _candidates(self, system, calculator, n):
        placer = TAP25DPlacer(system, calculator, TAP25DConfig())
        rng = np.random.default_rng(7)
        current = placer.initial_placement()
        out = []
        while len(out) < n:
            candidate = placer.propose(current, rng, 0.3)
            if candidate is not None:
                out.append(candidate)
                current = candidate
        return out

    def test_evaluate_many_matches_scalar(self, small_system, calculator):
        placements = self._candidates(small_system, calculator, 9)
        rewards = calculator.evaluate_many(placements)
        scalar = np.array(
            [calculator.evaluate(p).reward for p in placements]
        )
        assert np.array_equal(rewards, scalar)

    def test_evaluate_many_empty(self, calculator):
        assert len(calculator.evaluate_many([])) == 0

    def test_evaluate_many_mixed_systems_falls_back(
        self, small_system, calculator
    ):
        """Same die names on a different system must not share a batch."""
        from repro.chiplet import Chiplet, ChipletSystem, Placement

        twin = ChipletSystem(
            "twin",
            small_system.interposer,
            tuple(
                Chiplet(c.name, c.width, c.height, c.power * 3.0, kind=c.kind)
                for c in small_system.chiplets
            ),
        )
        placement = self._candidates(small_system, calculator, 1)[0]
        twin_placement = Placement(twin, dict(placement.positions))
        rewards = calculator.evaluate_many([placement, twin_placement])
        scalar = np.array(
            [
                calculator.evaluate(placement).reward,
                calculator.evaluate(twin_placement).reward,
            ]
        )
        np.testing.assert_allclose(rewards, scalar, rtol=0, atol=1e-9)

    def test_wirelength_batch_bump_assignment(self, small_system, small_fast_model):
        calc = RewardCalculator(
            small_fast_model,
            RewardConfig(lambda_wl=1e-4, use_bump_assignment=True),
        )
        placements = self._candidates(small_system, calc, 3)
        batch = calc.wirelength_many(placements)
        scalar = np.array([calc.wirelength(p) for p in placements])
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)



class TestMultiChainPlacers:
    def test_tap25d_multichain_runs_and_is_legal(
        self, small_system, calculator
    ):
        result = TAP25DPlacer(
            small_system,
            calculator,
            TAP25DConfig(n_iterations=60, seed=0, n_chains=4),
        ).run()
        validate_placement(result.placement)
        # Every chain spends its budget: more evaluations than one chain.
        assert result.n_evaluations > 60
        again = calculator.evaluate(result.placement)
        assert again.reward == result.reward

    def test_tap25d_multichain_never_worse_than_worst_chain(
        self, small_system, calculator
    ):
        multi = TAP25DPlacer(
            small_system,
            calculator,
            TAP25DConfig(n_iterations=50, seed=1, n_chains=3),
        ).run()
        solo = TAP25DPlacer(
            small_system,
            calculator,
            TAP25DConfig(n_iterations=50, seed=1),
        ).run()
        # Chain 0 is the solo run bitwise; best-of-3 can only improve on it.
        assert multi.reward >= solo.reward

    def test_bstar_multichain_runs_and_is_legal(
        self, small_system, calculator
    ):
        result = BStarFloorplanner(
            small_system,
            calculator,
            SAConfig(n_iterations=50, seed=0, n_chains=3),
        ).run()
        validate_placement(result.placement)
        assert result.n_evaluations > 50

    def test_random_search_batched_matches_sequential(
        self, small_system, calculator
    ):
        sequential = random_search(
            small_system, calculator, n_samples=12, seed=9
        )
        batched = random_search(
            small_system, calculator, n_samples=12, seed=9, batch_size=5
        )
        # Identical RNG stream => identical samples => identical winner.
        assert batched.n_evaluations == sequential.n_evaluations == 12
        assert batched.placement.as_dict() == sequential.placement.as_dict()
        assert batched.reward == sequential.reward

    def test_random_search_batch_size_validation(
        self, small_system, calculator
    ):
        with pytest.raises(ValueError):
            random_search(small_system, calculator, batch_size=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TAP25DConfig(n_chains=0)
        with pytest.raises(ValueError):
            SAConfig(n_chains=0)
