"""Observation encoding: the state image fed to the CNN agent.

Channels (all on the placement grid, values in [0, 1]):

0. occupancy  — cell coverage of the placed dies
1. power      — power density of placed dies, normalized by the system max
2. connect    — coverage of placed dies that share a net with the die
                being placed, weighted by relative wire count
3. width      — constant: current die width / interposer width
4. height     — constant: current die height / interposer height
5. density    — constant: current die power density / system max
6. progress   — constant: fraction of dies already placed

Observations are in the network's float32, each value rounded once from
float64 (exact for running maxima: rounding is monotonic).
"""

from __future__ import annotations

import numpy as np

from repro.chiplet import ChipletSystem, Placement
from repro.geometry import PlacementGrid
from repro.nn import PARAM_DTYPE

__all__ = ["ObservationBuilder"]


class ObservationBuilder:
    """Builds (C, rows, cols) observation tensors for one system."""

    N_CHANNELS = 7
    # Channels that are spatially constant AND identical for every
    # episode of a lockstep batch (they depend only on the die being
    # placed and the step number, which lockstep episodes share).  The
    # batched rollout engine exploits this to run the first conv layer's
    # contribution from these channels once per step instead of once per
    # episode.
    STATIC_CHANNELS = (3, 4, 5, 6)

    def __init__(self, system: ChipletSystem, grid: PlacementGrid):
        self.system = system
        self.grid = grid
        self._max_density = max(c.power_density for c in system.chiplets)
        self._max_wires = max((n.wires for n in system.nets), default=1)

    @property
    def shape(self) -> tuple:
        return (self.N_CHANNELS, self.grid.rows, self.grid.cols)

    def _wires_to(self, current_name: str) -> dict:
        """Wire counts between the current die and every other die."""
        wires_to_current: dict = {}
        for net in self.system.nets_of(current_name):
            other = net.other(current_name)
            wires_to_current[other] = wires_to_current.get(other, 0) + net.wires
        return wires_to_current

    def build(self, placement: Placement, current_name: str) -> np.ndarray:
        """Observation for choosing where to put ``current_name``."""
        grid = self.grid
        obs = np.zeros(self.shape, dtype=PARAM_DTYPE)
        current = self.system.chiplet(current_name)
        wires_to_current = self._wires_to(current_name)

        for name in placement.placed_names:
            rect = placement.footprint(name)
            cover = grid.coverage(rect)
            obs[0] = np.maximum(obs[0], cover)
            chiplet = self.system.chiplet(name)
            obs[1] = np.maximum(
                obs[1], cover * (chiplet.power_density / self._max_density)
            )
            wires = wires_to_current.get(name, 0)
            if wires:
                obs[2] = np.maximum(obs[2], cover * (wires / self._max_wires))

        obs[3] = current.width / grid.width
        obs[4] = current.height / grid.height
        obs[5] = current.power_density / self._max_density
        obs[6] = len(placement.placed_names) / self.system.n_chiplets
        return obs

    def build_batch(self, placements: list, current_name: str) -> np.ndarray:
        """Stacked (n, C, rows, cols) observations for lockstep episodes.

        All episodes are choosing where to put the *same* chiplet
        (lockstep rollouts share the placement order), so the wire
        lookup and the constant channels are computed once for the whole
        batch.  Stateless from-scratch construction: the batched
        environment itself assembles observations incrementally via
        :meth:`build_stacked`; this method is the reference the
        equivalence tests pin that path against.
        """
        n = len(placements)
        obs = np.zeros((n,) + self.shape, dtype=PARAM_DTYPE)
        current = self.system.chiplet(current_name)
        wires_to_current = self._wires_to(current_name)
        coverage = self.grid.coverage
        density = {
            c.name: c.power_density / self._max_density
            for c in self.system.chiplets
        }

        for i, placement in enumerate(placements):
            for name in placement.placed_names:
                cover = coverage(placement.footprint(name))
                np.maximum(obs[i, 0], cover, out=obs[i, 0])
                np.maximum(obs[i, 1], cover * density[name], out=obs[i, 1])
                wires = wires_to_current.get(name, 0)
                if wires:
                    np.maximum(
                        obs[i, 2],
                        cover * (wires / self._max_wires),
                        out=obs[i, 2],
                    )
            obs[i, 6] = len(placement.placed_names) / self.system.n_chiplets

        obs[:, 3] = current.width / self.grid.width
        obs[:, 4] = current.height / self.grid.height
        obs[:, 5] = current.power_density / self._max_density
        return obs

    @property
    def max_density(self) -> float:
        """System-wide max power density (the power-channel normalizer)."""
        return self._max_density

    @property
    def max_wires(self) -> int:
        """System-wide max per-net wire count (the connect normalizer)."""
        return self._max_wires

    def wires_to(self, current_name: str) -> dict:
        """Public alias of the per-die wire-count lookup."""
        return self._wires_to(current_name)

    def build_stacked(
        self,
        occupancy: np.ndarray,
        power: np.ndarray,
        connect: np.ndarray,
        current_name: str,
        n_placed: int,
    ) -> np.ndarray:
        """Assemble (n, C, rows, cols) observations from dynamic channels.

        The batched environment maintains occupancy/power as running
        maxima (running ``max`` is exact, so the channels are bitwise
        identical to rebuilding them from scratch) and the connect
        channel per step; this stitches them together with the constant
        channels, vectorized across the batch.
        """
        n = len(occupancy)
        obs = np.empty((n,) + self.shape, dtype=PARAM_DTYPE)
        obs[:, 0] = occupancy
        obs[:, 1] = power
        obs[:, 2] = connect
        current = self.system.chiplet(current_name)
        obs[:, 3] = current.width / self.grid.width
        obs[:, 4] = current.height / self.grid.height
        obs[:, 5] = current.power_density / self._max_density
        obs[:, 6] = n_placed / self.system.n_chiplets
        return obs
