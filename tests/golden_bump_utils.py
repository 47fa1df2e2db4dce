"""Fixed scenario shared by the bump-wirelength golden test and its generator.

The golden regression (``tests/data/golden_bump_wirelength.json``) pins
the wirelength of the default reward path — microbump assignment
(``RewardConfig.use_bump_assignment=True``), which every bundled
benchmark runs with — on the three Table I systems.  Each system
contributes a fixed set of legal placements: seeded random walks of
``TAP25DPlacer.propose`` from the shelf-packed ``initial_placement()``,
so the set covers displaced, swapped and rotated dies without any
annealing.  The golden was generated from the code as it stood, so it
pins the greedy pairing's current acceptance order (see
``BumpAssigner._pair_greedy``): a faster or reordered pairing must
reproduce these numbers or regenerate them on purpose.

Floats are stored via ``float.hex()`` so the comparison is bitwise.
Both the generator (``scripts/gen_golden_bump.py``) and the regression
test import this module so the scenario can never drift between them.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import TAP25DPlacer
from repro.reward import RewardCalculator
from repro.systems import get_benchmark

GOLDEN_BUMP_PATH = "tests/data/golden_bump_wirelength.json"

#: The Table I systems, each with its own bundled reward config.
GOLDEN_BUMP_SYSTEMS = ("ascend910", "multi_gpu", "cpu_dram")
PLACEMENTS_PER_SYSTEM = 8
WALK_MOVES = 40


def walk_placements(spec) -> list:
    """``PLACEMENTS_PER_SYSTEM`` legal placements of ``spec.system``.

    Placement ``k`` is a ``WALK_MOVES``-move walk seeded with ``k``:
    each legal proposal is taken, an illegal one (``None``) skipped.
    """
    placer = TAP25DPlacer(spec.system, golden_calculator(spec))
    placements = []
    for seed in range(PLACEMENTS_PER_SYSTEM):
        rng = np.random.default_rng(seed)
        placement = placer.initial_placement()
        for move in range(WALK_MOVES):
            candidate = placer.propose(placement, rng, move / WALK_MOVES)
            if candidate is not None:
                placement = candidate
        placements.append(placement)
    return placements


def golden_calculator(spec) -> RewardCalculator:
    """Wirelength-only calculator on the benchmark's own reward config."""
    return RewardCalculator(None, spec.reward_config)


def run_golden_bump() -> dict:
    """``{system: {"placements": [...], "wirelength": [hex, ...]}}``."""
    record = {}
    for name in GOLDEN_BUMP_SYSTEMS:
        spec = get_benchmark(name)
        calculator = golden_calculator(spec)
        placements = walk_placements(spec)
        record[name] = {
            "placements": [p.as_dict() for p in placements],
            "wirelength": [
                float(calculator.wirelength(p)).hex() for p in placements
            ],
        }
    return record
