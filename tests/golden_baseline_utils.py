"""Fixed scenario shared by the golden-baselines test and its generator.

The golden regression (``tests/data/golden_baselines.json``) pins the
single-chain search baselines — the generic SA engine, TAP-2.5D (on the
fast thermal model *and* on the ground-truth grid solver), the B*-tree
annealer and random search — to the exact results the pre-refactor
(one-evaluation-per-proposal) engines produced.  One chain of the
lockstep engine reproduces them bit for bit; this golden is what
enforces that.  Both placers run through the one annealing path
(``repro.baselines.sa.anneal`` over ``SimulatedAnnealing.run_chains``,
configured by the one ``SAConfig``), so the ``tap25d``,
``tap25d_hotspot`` and ``bstar`` records pin that path, and ``sa_toy``
pins the bare engine.  The
``tap25d_hotspot`` record pins the grid solver's factorization through
a whole annealing run; it was regenerated once, when the solver moved
to its symmetric unpivoted ``splu`` (a 1e-10 relative reward shift).

Floats are stored via ``float.hex()`` so the comparison is bitwise, not
approximate.  Both the checked-in generator
(``scripts/gen_golden_baselines.py``) and the regression test import
this module so the scenario can never drift between them.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import (
    BStarFloorplanner,
    SAConfig,
    SimulatedAnnealing,
    TAP25DConfig,
    TAP25DPlacer,
    random_search,
)
from repro.reward import RewardCalculator, RewardConfig
from repro.thermal import (
    FastThermalModel,
    GridThermalSolver,
    ThermalConfig,
    characterize_tables,
)

from golden_utils import build_golden_system

GOLDEN_BASELINES_PATH = "tests/data/golden_baselines.json"


def build_golden_calculator() -> RewardCalculator:
    """Fast-model reward calculator over the golden three-die system."""
    system = build_golden_system()
    config = ThermalConfig(rows=32, cols=32, package_margin=8.0)
    sizes = []
    for chiplet in system.chiplets:
        sizes.append((chiplet.width, chiplet.height))
        if chiplet.rotatable:
            sizes.append((chiplet.height, chiplet.width))
    tables = characterize_tables(
        system.interposer, sizes, config, position_samples=(5, 5)
    )
    calc = RewardCalculator(
        FastThermalModel(tables, config),
        RewardConfig(lambda_wl=1e-4, use_bump_assignment=False),
    )
    calc.system = system
    return calc


def build_golden_hotspot_calculator() -> RewardCalculator:
    """Grid-solver reward calculator over the golden three-die system.

    The HotSpot-arm twin of :func:`build_golden_calculator`: same system
    and reward weights, but the thermal evaluator is the ground-truth
    :class:`GridThermalSolver` with per-call factorization — exactly how
    the experiment harness builds the ``TAP-2.5D(HotSpot)`` arm.  The
    grid is kept coarse so the golden run stays cheap; the solver code
    path is identical at any resolution.
    """
    system = build_golden_system()
    config = ThermalConfig(rows=16, cols=16, package_margin=8.0)
    calc = RewardCalculator(
        GridThermalSolver(system.interposer, config),
        RewardConfig(lambda_wl=1e-4, use_bump_assignment=False),
    )
    calc.system = system
    return calc


def _toy_propose(state, rng, progress):
    return state + rng.normal(0.0, 1.0 * (1.0 - 0.9 * progress))


def _toy_evaluate(states):
    return np.array([(state - 3.0) ** 2 for state in states])


def run_golden_baselines(calculator: RewardCalculator | None = None) -> dict:
    """Run every single-chain baseline; distill bitwise-comparable records."""
    calc = calculator or build_golden_calculator()
    system = calc.system

    sa = SimulatedAnnealing(
        _toy_propose, _toy_evaluate, SAConfig(n_iterations=400, seed=7)
    )
    sa_result = sa.run_chains([-8.0])

    tap = TAP25DPlacer(
        system, calc, TAP25DConfig(n_iterations=150, seed=3)
    ).run()
    hotspot_calc = build_golden_hotspot_calculator()
    tap_hotspot = TAP25DPlacer(
        hotspot_calc.system, hotspot_calc, TAP25DConfig(n_iterations=40, seed=3)
    ).run()
    bstar = BStarFloorplanner(
        system, calc, SAConfig(n_iterations=100, seed=3)
    ).run()
    rand = random_search(system, calc, n_samples=12, seed=3)

    def placer_record(result) -> dict:
        return {
            "reward": float(result.reward).hex(),
            "wirelength": float(result.breakdown.wirelength).hex(),
            "temperature_c": float(result.breakdown.max_temperature_c).hex(),
            "n_evaluations": result.n_evaluations,
            "placement": result.placement.as_dict(),
            "history_len": len(result.history or []),
            "final_best_cost": (
                float(result.history[-1]["best_cost"]).hex()
                if len(result.history or [])
                else None
            ),
        }

    return {
        "sa_toy": {
            "best_state": float(sa_result.best_state).hex(),
            "best_cost": float(sa_result.best_cost).hex(),
            "n_evaluations": sa_result.n_evaluations,
            "n_accepted": sa_result.n_accepted,
            "history_len": len(sa_result.history),
        },
        "tap25d": placer_record(tap),
        "tap25d_hotspot": placer_record(tap_hotspot),
        "bstar": placer_record(bstar),
        "random_search": {
            "reward": float(rand.reward).hex(),
            "n_evaluations": rand.n_evaluations,
            "placement": rand.placement.as_dict(),
        },
    }
