"""Sequential chiplet-placement MDP, stepped in lockstep batches."""

from repro.env.batched_env import BatchedFloorplanEnv, BatchedStepResult, EnvConfig
from repro.env.mask import feasible_cells, feasible_cells_batch
from repro.env.state import ObservationBuilder

__all__ = [
    "EnvConfig",
    "BatchedFloorplanEnv",
    "BatchedStepResult",
    "feasible_cells",
    "feasible_cells_batch",
    "ObservationBuilder",
]
