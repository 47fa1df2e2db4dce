"""RLPlanner reproduction (DATE 2024).

Reinforcement-learning-based floorplanning for 2.5D chiplet systems
with a fast physics-informed thermal surrogate.  See README.md for a
tour and DESIGN.md for the system inventory.
"""

from repro.chiplet import Chiplet, ChipletSystem, Interposer, Net, Placement
from repro.thermal import (
    FastThermalModel,
    GridThermalSolver,
    ThermalConfig,
    characterize_tables,
)
from repro.reward import RewardCalculator, RewardConfig
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.agent import ActorCritic, RLPlannerTrainer, TrainerConfig
from repro.baselines import TAP25DConfig, TAP25DPlacer, random_search

__version__ = "1.0.0"

__all__ = [
    "Chiplet",
    "ChipletSystem",
    "Interposer",
    "Net",
    "Placement",
    "GridThermalSolver",
    "FastThermalModel",
    "ThermalConfig",
    "characterize_tables",
    "RewardCalculator",
    "RewardConfig",
    "BatchedFloorplanEnv",
    "EnvConfig",
    "ActorCritic",
    "RLPlannerTrainer",
    "TrainerConfig",
    "TAP25DPlacer",
    "TAP25DConfig",
    "random_search",
    "__version__",
]
