"""RLPlanner reproduction (DATE 2024).

Reinforcement-learning-based floorplanning for 2.5D chiplet systems
with a fast physics-informed thermal surrogate.  See README.md for a
tour and DESIGN.md for the system inventory.
"""

import importlib

# Exports load on first access (PEP 562), so importing a submodule such
# as ``repro.cli`` does not load numpy first: the command-line and serve
# entry points set their BLAS thread policy before it loads
# (:mod:`repro.blas`).
_EXPORTS = {
    "Chiplet": "repro.chiplet",
    "ChipletSystem": "repro.chiplet",
    "Interposer": "repro.chiplet",
    "Net": "repro.chiplet",
    "Placement": "repro.chiplet",
    "FastThermalModel": "repro.thermal",
    "GridThermalSolver": "repro.thermal",
    "ThermalConfig": "repro.thermal",
    "characterize_tables": "repro.thermal",
    "RewardCalculator": "repro.reward",
    "RewardConfig": "repro.reward",
    "BatchedFloorplanEnv": "repro.env",
    "EnvConfig": "repro.env",
    "ActorCritic": "repro.agent",
    "RLPlannerTrainer": "repro.agent",
    "TrainerConfig": "repro.agent",
    "TAP25DPlacer": "repro.baselines",
    "TAP25DConfig": "repro.baselines",
    "random_search": "repro.baselines",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]
