"""Differential fast-model-vs-ground-truth harness + multi-RHS solver tests.

Two families of guarantees land here:

1. **Accuracy envelope** — on every bundled benchmark system
   (multi_gpu, cpu_dram, ascend910, synthetic), seeded random legal
   placements are evaluated by both :class:`FastThermalModel` and
   :class:`GridThermalSolver`; peak temperatures must stay inside the
   paper's documented envelope (``PEAK_TEMP_*_ERROR_C``) and per-chiplet
   temperatures inside the wider documented per-die envelope
   (``CHIPLET_TEMP_*_ERROR_C``).  A solver, characterization, or
   surrogate change that degrades either fails here instead of silently
   skewing reproduced tables.

2. **Multi-RHS batched solver** — ``solve_footprints_many`` /
   ``evaluate_batch`` / ``max_temperatures`` must be *bitwise* identical
   to sequential solves (that is what lets the HotSpot SA arm join the
   multi-chain annealing engine), must amortize to one factorization
   per batch in homogeneous mode, and must fall back to per-column
   factorizations in heterogeneous mode.  ``solve_count`` /
   ``factorization_count`` accounting makes the sharing observable.

The systems use coarsened grids (32x32) and characterization sampling so
the module stays fast; every code path is resolution-independent.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import SAConfig, SimulatedAnnealing, TAP25DConfig, TAP25DPlacer
from repro.baselines.random_search import random_legal_placement
from repro.chiplet import Chiplet, ChipletSystem, Placement
from repro.reward import RewardCalculator, RewardConfig
from repro.systems import get_benchmark
from repro.thermal import (
    FastThermalModel,
    GridThermalSolver,
    ThermalConfig,
    characterize_tables,
)
from repro.thermal.config import KELVIN_OFFSET
from repro.thermal.fast_model import (
    CHIPLET_TEMP_MAX_ERROR_C,
    CHIPLET_TEMP_MEAN_ERROR_C,
    PEAK_TEMP_MAX_ERROR_C,
    PEAK_TEMP_MEAN_ERROR_C,
)

DIFFERENTIAL_SYSTEMS = ("multi_gpu", "cpu_dram", "ascend910", "synthetic1")
N_PLACEMENTS = 8
PLACEMENT_SEED = 7


@pytest.fixture(scope="module", params=DIFFERENTIAL_SYSTEMS)
def differential_setup(request):
    """(system, solver, fast model) triple on a coarsened test grid."""
    spec = get_benchmark(request.param)
    config = replace(spec.thermal_config, rows=32, cols=32)
    sizes = []
    for chiplet in spec.system.chiplets:
        sizes.append((chiplet.width, chiplet.height))
        if chiplet.rotatable:
            sizes.append((chiplet.height, chiplet.width))
    solver = GridThermalSolver(
        spec.system.interposer, config, reuse_factorization=True
    )
    tables = characterize_tables(
        spec.system.interposer,
        sizes,
        config,
        position_samples=(5, 5),
        solver=solver,
    )
    return spec.system, solver, FastThermalModel(tables, config)


def _seeded_placements(system, n=N_PLACEMENTS, seed=PLACEMENT_SEED):
    rng = np.random.default_rng(seed)
    return [random_legal_placement(system, rng) for _ in range(n)]


class TestAccuracyEnvelope:
    """Fast model vs ground truth on every bundled benchmark system."""

    def test_peak_and_per_chiplet_errors_within_envelope(
        self, differential_setup
    ):
        system, solver, fast = differential_setup
        peak_errors, chiplet_errors = [], []
        for placement in _seeded_placements(system):
            ref = solver.evaluate(placement)
            pred = fast.evaluate(placement)
            peak_errors.append(
                abs(pred.max_temperature - ref.max_temperature)
            )
            for name, temp in ref.chiplet_temperatures.items():
                chiplet_errors.append(
                    abs(pred.chiplet_temperatures[name] - temp)
                )
        peak_errors = np.array(peak_errors)
        chiplet_errors = np.array(chiplet_errors)
        assert peak_errors.max() < PEAK_TEMP_MAX_ERROR_C
        assert peak_errors.mean() < PEAK_TEMP_MEAN_ERROR_C
        assert chiplet_errors.max() < CHIPLET_TEMP_MAX_ERROR_C
        assert chiplet_errors.mean() < CHIPLET_TEMP_MEAN_ERROR_C

    def test_fast_batch_matches_fast_scalar(self, differential_setup):
        """The surrogate's scalar evaluate is a row of its batch path."""
        system, _, fast = differential_setup
        placements = _seeded_placements(system, n=4)
        batch = fast.max_temperatures(placements)
        scalar = np.array(
            [fast.evaluate(p).max_temperature for p in placements]
        )
        assert np.array_equal(batch, scalar)


class TestMultiRHSBitwise:
    """The batched grid solver vs sequential solves, to the last bit."""

    def test_evaluate_many_bitwise_equals_sequential(
        self, differential_setup
    ):
        system, solver, _ = differential_setup
        placements = _seeded_placements(system, n=4)
        sequential = [solver.evaluate(p) for p in placements]
        batched = solver.evaluate_batch(placements)
        assert len(batched) == len(sequential)
        for seq, bat in zip(sequential, batched):
            assert bat.chiplet_temperatures == seq.chiplet_temperatures
            assert bat.max_temperature == seq.max_temperature
            assert np.array_equal(
                bat.grid_temperatures, seq.grid_temperatures
            )

    def test_max_temperatures_bitwise(self, differential_setup):
        system, solver, _ = differential_setup
        placements = _seeded_placements(system, n=4)
        batched = solver.max_temperatures(placements)
        scalar = np.array(
            [solver.evaluate(p).max_temperature for p in placements]
        )
        assert np.array_equal(batched, scalar)

    def test_fresh_solver_block_solve_bitwise(self, differential_setup):
        """reuse_factorization=False: fresh per-call factorizations still
        reproduce the cached solver's solutions bitwise (deterministic
        assembly => identical matrix => identical LU)."""
        system, cached_solver, _ = differential_setup
        fresh = GridThermalSolver(system.interposer, cached_solver.config)
        placements = _seeded_placements(system, n=3)
        fields_fresh = fresh.evaluate_batch(placements)
        fields_cached = cached_solver.evaluate_batch(placements)
        for a, b in zip(fields_fresh, fields_cached):
            assert np.array_equal(a.grid_temperatures, b.grid_temperatures)


class TestSolveAccounting:
    """solve_count counts columns; factorization_count counts LU runs."""

    def _solver_and_placements(self, reuse):
        system = ChipletSystem(
            "acct",
            get_benchmark("synthetic1").system.interposer,
            (
                Chiplet("a", 8.0, 8.0, 40.0),
                Chiplet("b", 6.0, 6.0, 10.0),
            ),
        )
        config = ThermalConfig(rows=16, cols=16, package_margin=8.0)
        solver = GridThermalSolver(
            system.interposer, config, reuse_factorization=reuse
        )
        placements = []
        for x in (2.0, 12.0, 22.0):
            p = Placement(system)
            p.place("a", x, 2.0)
            p.place("b", x, 20.0)
            placements.append(p)
        return solver, placements

    def test_batched_call_counts_all_columns_one_factorization(self):
        solver, placements = self._solver_and_placements(reuse=False)
        solver.evaluate_batch(placements)
        assert solver.solve_count == 3
        assert solver.factorization_count == 1
        # A second batched call re-factorizes (HotSpot-like per-call
        # cost at batch granularity) but still only once for the block.
        solver.evaluate_batch(placements)
        assert solver.solve_count == 6
        assert solver.factorization_count == 2

    def test_reused_factorization_shared_across_batches(self):
        solver, placements = self._solver_and_placements(reuse=True)
        solver.evaluate_batch(placements)
        solver.evaluate_batch(placements)
        solver.evaluate(placements[0])
        assert solver.solve_count == 7
        assert solver.factorization_count == 1

    def test_sequential_scalar_counts(self):
        solver, placements = self._solver_and_placements(reuse=False)
        for p in placements:
            solver.evaluate(p)
        assert solver.solve_count == 3
        assert solver.factorization_count == 3

    def test_empty_batch(self):
        solver, _ = self._solver_and_placements(reuse=False)
        assert solver.evaluate_batch([]) == []
        assert len(solver.max_temperatures([])) == 0
        assert solver.solve_count == 0
        assert solver.factorization_count == 0

    def test_mismatched_lengths_rejected(self):
        solver, placements = self._solver_and_placements(reuse=False)
        footprints = [p.footprints() for p in placements]
        with pytest.raises(ValueError, match="lengths"):
            solver.solve_footprints_many(footprints, [{}])


class TestExactRewardAdapter:
    """RewardCalculator routing for solver-backed (exact) evaluators."""

    @pytest.fixture(scope="class")
    def hotspot_calc(self, small_interposer, small_system):
        config = ThermalConfig(rows=16, cols=16, package_margin=8.0)
        calc = RewardCalculator(
            GridThermalSolver(small_interposer, config),
            RewardConfig(lambda_wl=1e-4, use_bump_assignment=False),
        )
        return calc, small_system

    def test_evaluate_many_bitwise_equals_scalar(self, hotspot_calc):
        calc, system = hotspot_calc
        placements = _seeded_placements(system, n=5, seed=3)
        batched = calc.evaluate_many(placements)
        scalar = np.array([calc.evaluate(p).reward for p in placements])
        assert np.array_equal(batched, scalar)

    def test_exact_adapter_used_for_solver(self, hotspot_calc):
        """The exact path: batched thermal, scalar wirelength/combine."""
        calc, system = hotspot_calc
        placements = _seeded_placements(system, n=3, seed=4)
        max_temps = calc.thermal.max_temperatures(placements)
        exact = np.array(
            [
                calc.config.combine(calc.wirelength(p), t - KELVIN_OFFSET)
                for p, t in zip(placements, max_temps)
            ]
        )
        routed = calc.evaluate_many(placements)
        assert np.array_equal(exact, routed)

    def test_evaluate_batch_shares_one_factorization(
        self, small_interposer, small_system
    ):
        """A grid-backed evaluate_batch factorizes once per call, even
        without reuse, and every breakdown equals scalar evaluate."""
        config = ThermalConfig(rows=16, cols=16, package_margin=8.0)
        solver = GridThermalSolver(
            small_interposer, config, reuse_factorization=False
        )
        calc = RewardCalculator(solver, RewardConfig(lambda_wl=1e-4))
        placements = _seeded_placements(small_system, n=4, seed=5)
        batched = calc.evaluate_batch(placements)
        assert solver.factorization_count == 1
        calc.evaluate_batch(placements)
        assert solver.factorization_count == 2
        for p, bat in zip(placements, batched):
            seq = calc.evaluate(p)
            assert bat.reward == seq.reward
            assert bat.wirelength == seq.wirelength
            assert bat.max_temperature_c == seq.max_temperature_c
            assert bat.thermal_penalty == seq.thermal_penalty


class TestHotSpotArmMultiChain:
    """run_chains == M sequential seeded runs, on either evaluator."""

    N_CHAINS = 16

    @pytest.fixture(scope="class")
    def annealing_pieces(self, small_interposer, small_system):
        config = ThermalConfig(rows=16, cols=16, package_margin=8.0)
        calc = RewardCalculator(
            GridThermalSolver(small_interposer, config),
            RewardConfig(lambda_wl=1e-4, use_bump_assignment=False),
        )
        placer = TAP25DPlacer(small_system, calc, TAP25DConfig())
        return calc, placer

    def test_16_chains_bitwise_equal_16_sequential_runs(
        self, annealing_pieces
    ):
        self._assert_chains_equal_sequential_runs(*annealing_pieces)

    def test_16_chains_bitwise_equal_16_sequential_runs_fast_model(
        self, small_system, small_fast_model
    ):
        """Every reward is a row of one batched call, so the fast model
        reproduces sequential runs bitwise as well."""
        calc = RewardCalculator(
            small_fast_model,
            RewardConfig(lambda_wl=1e-4, use_bump_assignment=False),
        )
        placer = TAP25DPlacer(small_system, calc, TAP25DConfig())
        self._assert_chains_equal_sequential_runs(calc, placer)

    def _assert_chains_equal_sequential_runs(self, calc, placer):
        initial = placer.initial_placement()

        def evaluate_many(placements):
            return -calc.evaluate_many(placements)

        def make_engine(seed, chains):
            return SimulatedAnnealing(
                propose=placer.propose,
                evaluate_many=evaluate_many,
                config=SAConfig(
                    n_iterations=10, seed=seed, n_chains=chains
                ),
            )

        multi = make_engine(11, self.N_CHAINS).run_chains(
            [initial] * self.N_CHAINS
        )
        assert multi.n_chains == self.N_CHAINS
        sequential_best = []
        for c in range(self.N_CHAINS):
            solo = make_engine(11 + c, 1).run_chains([initial])
            assert multi.chain_best_costs[c] == solo.best_cost, (
                f"chain {c} diverged from its sequential twin"
            )
            sequential_best.append(solo.best_cost)
        assert multi.best_cost == min(sequential_best)

    def test_multichain_amortizes_factorizations(self, annealing_pieces):
        calc, placer = annealing_pieces
        solver = calc.thermal
        solver.solve_count = 0
        solver.factorization_count = 0
        result = TAP25DPlacer(
            placer.system,
            calc,
            TAP25DConfig(n_iterations=8, seed=2, n_chains=8),
        ).run()
        assert result.n_evaluations > 8
        # Without the multi-RHS path every solve would factorize; with
        # it, factorizations only happen once per lockstep step.
        assert solver.factorization_count < solver.solve_count / 2

    def test_reuse_factorization_amortizes_across_sa_steps(
        self, small_interposer, small_system
    ):
        """ROADMAP follow-up from PR 3: ``reuse_factorization=True`` keeps
        ONE splu factorization alive across successive ``evaluate_many``
        calls — across lockstep SA steps, not just within one — and the
        whole annealing run is bitwise identical to the fresh-per-step
        solver (deterministic assembly => identical LU)."""
        config = ThermalConfig(rows=16, cols=16, package_margin=8.0)
        results = {}
        solvers = {}
        for reuse in (False, True):
            solver = GridThermalSolver(
                small_interposer, config, reuse_factorization=reuse
            )
            solvers[reuse] = solver
            calc = RewardCalculator(
                solver,
                RewardConfig(lambda_wl=1e-4, use_bump_assignment=False),
            )
            results[reuse] = TAP25DPlacer(
                small_system,
                calc,
                TAP25DConfig(n_iterations=6, seed=2, n_chains=4),
            ).run()
        reused = solvers[True]
        fresh = solvers[False]
        assert reused.solve_count == fresh.solve_count
        # Calibration + every SA step share the single factorization.
        assert reused.factorization_count == 1
        assert fresh.factorization_count > reused.solve_count / 8
        # Same solves, same answers — bit for bit.
        assert results[True].reward == results[False].reward
        assert (
            results[True].placement.as_dict()
            == results[False].placement.as_dict()
        )
