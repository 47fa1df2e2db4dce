"""The sequential-placement environment (paper Fig. 1's left block).

Chiplets are placed one per step, largest first.  The action is the grid
cell receiving the current chiplet's lower-left corner (optionally x2
for 90-degree rotation).  Infeasible cells are masked.

:class:`BatchedFloorplanEnv` steps ``n`` independent episodes of the
same system in lockstep: every live episode is placing the same chiplet
(the canonical placement order is shared), so one call produces stacked
observations and masks that feed a single batched actor-critic forward
pass.  ``reset(1)`` runs a single episode.

* The reward is terminal: after the last placement the reward
  calculator performs microbump assignment and thermal analysis, for
  the whole batch in one pass.
* A *deadlock* (no feasible cell for the next die) ends that episode
  with a configurable penalty while the rest of the batch keeps
  running; the mask makes this rare but tight packings can still paint
  themselves into a corner.

Batching economies:

* grid coverage rasterization is memoized by footprint rectangle — the
  action space is grid-quantized, so lockstep episodes revisit the same
  rectangles constantly and the cache hit rate is high;
* per-episode placed-footprint lists are maintained incrementally
  instead of being rebuilt from the placement dict every step;
* the feasibility masks come from
  :func:`~repro.env.mask.feasible_cells_batch`, which shares the
  in-bounds region and memoizes carve bounds across the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chiplet import ChipletSystem, Placement
from repro.env.mask import feasible_cells_batch
from repro.env.state import ObservationBuilder
from repro.geometry import PlacementGrid
from repro.reward import RewardCalculator

__all__ = ["EnvConfig", "BatchedStepResult", "BatchedFloorplanEnv"]


@dataclass(frozen=True)
class EnvConfig:
    """Environment parameters.

    Attributes
    ----------
    grid_size:
        Placement grid resolution (``grid_size x grid_size`` actions).
    allow_rotation:
        Doubles the action space with 90-degree-rotated placements.
    deadlock_penalty:
        Terminal reward when the mask empties mid-episode; should sit
        well below any achievable legal reward.
    """

    grid_size: int = 32
    allow_rotation: bool = False
    deadlock_penalty: float = -100.0

    def __post_init__(self) -> None:
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")


@dataclass
class BatchedStepResult:
    """Return value of :meth:`BatchedFloorplanEnv.step`.

    Attributes
    ----------
    observations, masks:
        Stacked arrays for the episodes still running *after* the step,
        ordered like :attr:`live_indices`; ``None`` when all are done.
    live_indices:
        Episode indices (into the ``reset`` batch) still running.
    finished:
        ``(index, reward, info)`` for every episode that terminated this
        step; ``info`` holds ``breakdown``/``placement`` for a completed
        floorplan, or ``deadlock``/``unplaceable``/``placement``.
    all_done:
        True when no episode is left running.
    """

    observations: np.ndarray | None
    masks: np.ndarray | None
    live_indices: np.ndarray
    finished: list = field(default_factory=list)

    @property
    def all_done(self) -> bool:
        return len(self.live_indices) == 0


class BatchedFloorplanEnv:
    """Steps ``n`` episodes of one system in lockstep.

    Parameters
    ----------
    system:
        The design to floorplan.
    reward_calculator:
        Shared terminal evaluator; finished placements of a step are
        evaluated in one batch pass.
    config:
        Grid resolution and episode options.
    """

    def __init__(
        self,
        system: ChipletSystem,
        reward_calculator: RewardCalculator,
        config: EnvConfig | None = None,
    ):
        self.system = system
        self.reward_calculator = reward_calculator
        self.config = config or EnvConfig()
        interposer = system.interposer
        self.grid = PlacementGrid(
            interposer.width,
            interposer.height,
            self.config.grid_size,
            self.config.grid_size,
        )
        self.observation_builder = ObservationBuilder(system, self.grid)
        self.order = system.placement_order()
        self._placements: list = []
        self._placed_rects: list = []
        self._live: np.ndarray = np.array([], dtype=np.intp)
        self._masks: np.ndarray | None = None
        self._step_index = 0
        self.episode_count = 0
        # Incremental observation state: occupancy/power are per-episode
        # running maxima (exact, so bitwise-identical to a full rebuild)
        # updated as dies are placed; the connect channel is recomputed
        # per step from cached per-die coverages.
        self._occupancy: np.ndarray | None = None
        self._power: np.ndarray | None = None
        self._covers: list = []
        self._density = {
            c.name: c.power_density / self.observation_builder.max_density
            for c in system.chiplets
        }
        # Footprint-rect -> coverage raster, shared across episodes and
        # steps (the grid quantizes origins, so hits dominate).  Arrays
        # handed out are treated as read-only by all consumers.  Bounded:
        # an exploring policy can visit every (origin, size) combination
        # over a long run, which would retain one raster per combination
        # forever; clearing on overflow keeps the common within-epoch
        # reuse while capping memory at ~8 MB on a 32x32 grid.
        self._coverage_cache: dict = {}
        self._coverage_cache_limit = 1024

    # ------------------------------------------------------------------

    @property
    def n_actions(self) -> int:
        base = self.grid.n_cells
        return base * 2 if self.config.allow_rotation else base

    @property
    def observation_shape(self) -> tuple:
        return self.observation_builder.shape

    @property
    def episode_length(self) -> int:
        return self.system.n_chiplets

    @property
    def current_chiplet_name(self) -> str:
        return self.order[self._step_index]

    @property
    def live_indices(self) -> np.ndarray:
        """Indices of episodes still running, in step-alignment order."""
        return self._live.copy()

    # ------------------------------------------------------------------

    def reset(self, n_episodes: int) -> tuple:
        """Start ``n_episodes`` fresh episodes; returns (obs, masks)."""
        if n_episodes < 1:
            raise ValueError("n_episodes must be >= 1")
        self._placements = [Placement(self.system) for _ in range(n_episodes)]
        self._placed_rects = [[] for _ in range(n_episodes)]
        self._live = np.arange(n_episodes, dtype=np.intp)
        self._step_index = 0
        self.episode_count += n_episodes
        rows, cols = self.grid.shape
        self._occupancy = np.zeros((n_episodes, rows, cols))
        self._power = np.zeros((n_episodes, rows, cols))
        self._covers = [[] for _ in range(n_episodes)]
        observations = self._observe_live()
        self._masks = self._masks_live()
        return observations, self._masks

    def step(self, actions) -> BatchedStepResult:
        """Place the current chiplet in every live episode.

        ``actions`` is aligned with the current :attr:`live_indices`.
        """
        if len(self._placements) == 0:
            raise RuntimeError("call reset() before step()")
        actions = np.asarray(actions, dtype=np.int64)
        if actions.shape != (len(self._live),):
            raise ValueError(
                f"expected {len(self._live)} actions "
                f"(one per live episode), got shape {actions.shape}"
            )
        if ((actions < 0) | (actions >= self.n_actions)).any():
            raise ValueError("action out of range")
        feasible = np.take_along_axis(self._masks, actions[:, None], axis=1)
        if not feasible.all():
            bad = int(self._live[int(np.flatnonzero(~feasible[:, 0])[0])])
            raise ValueError(f"episode {bad}: action is masked as infeasible")

        name = self.current_chiplet_name
        density = self._density[name]
        for row, index in enumerate(self._live):
            cell_index, rotated = self._decode(int(actions[row]))
            grid_row, grid_col = self.grid.unflatten(cell_index)
            x, y = self.grid.cell_origin(grid_row, grid_col)
            placement = self._placements[index]
            placement.place(name, x, y, rotated=rotated)
            rect = placement.footprint(name)
            self._placed_rects[index].append(rect)
            cover = self._coverage(rect)
            np.maximum(
                self._occupancy[index], cover, out=self._occupancy[index]
            )
            np.maximum(
                self._power[index], cover * density, out=self._power[index]
            )
            self._covers[index].append((name, cover))
        self._step_index += 1

        finished: list = []
        if self._step_index == self.system.n_chiplets:
            breakdowns = self.reward_calculator.evaluate_batch(
                [self._placements[i] for i in self._live]
            )
            for index, breakdown in zip(self._live, breakdowns):
                finished.append(
                    (
                        int(index),
                        breakdown.reward,
                        {
                            "breakdown": breakdown,
                            "placement": self._placements[index].copy(),
                        },
                    )
                )
            self._live = np.array([], dtype=np.intp)
            self._masks = None
            return BatchedStepResult(None, None, self._live.copy(), finished)

        # Detect deadlocks: episodes whose next die has no feasible cell.
        masks = self._masks_live()
        alive = masks.any(axis=1)
        for row in np.flatnonzero(~alive):
            index = int(self._live[row])
            finished.append(
                (
                    index,
                    self.config.deadlock_penalty,
                    {
                        "deadlock": True,
                        "unplaceable": self.current_chiplet_name,
                        "placement": self._placements[index].copy(),
                    },
                )
            )
        self._live = self._live[alive]
        if len(self._live) == 0:
            self._masks = None
            return BatchedStepResult(None, None, self._live.copy(), finished)
        self._masks = masks[alive]
        observations = self._observe_live()
        return BatchedStepResult(
            observations, self._masks, self._live.copy(), finished
        )

    # ------------------------------------------------------------------

    def _decode(self, action: int) -> tuple:
        """Action id -> (cell index, rotated)."""
        if self.config.allow_rotation and action >= self.grid.n_cells:
            return action - self.grid.n_cells, True
        return action, False

    def _coverage(self, rect) -> np.ndarray:
        key = (rect.x, rect.y, rect.w, rect.h)
        cover = self._coverage_cache.get(key)
        if cover is None:
            if len(self._coverage_cache) >= self._coverage_cache_limit:
                self._coverage_cache.clear()
            cover = self.grid.coverage(rect)
            self._coverage_cache[key] = cover
        return cover

    def _observe_live(self) -> np.ndarray:
        builder = self.observation_builder
        current = self.current_chiplet_name
        live = self._live
        wires_to_current = builder.wires_to(current)
        connect = np.zeros((len(live),) + self.grid.shape)
        if wires_to_current:
            max_wires = builder.max_wires
            for row, index in enumerate(live):
                for name, cover in self._covers[index]:
                    wires = wires_to_current.get(name, 0)
                    if wires:
                        np.maximum(
                            connect[row],
                            cover * (wires / max_wires),
                            out=connect[row],
                        )
        return builder.build_stacked(
            self._occupancy[live],
            self._power[live],
            connect,
            current,
            self._step_index,
        )

    def _masks_live(self) -> np.ndarray:
        """Flat (n_live, n_actions) feasibility masks for the next die."""
        chiplet = self.system.chiplet(self.current_chiplet_name)
        placed_lists = [self._placed_rects[i] for i in self._live]
        spacing = self.system.interposer.min_spacing
        n_live = len(placed_lists)
        upright = feasible_cells_batch(
            self.grid, chiplet.width, chiplet.height, placed_lists, spacing
        ).reshape(n_live, -1)
        if not self.config.allow_rotation:
            return upright
        if chiplet.rotatable and chiplet.width != chiplet.height:
            rotated = feasible_cells_batch(
                self.grid, chiplet.height, chiplet.width, placed_lists, spacing
            ).reshape(n_live, -1)
        elif chiplet.rotatable:
            rotated = upright.copy()
        else:
            rotated = np.zeros_like(upright)
        return np.concatenate([upright, rotated], axis=1)
