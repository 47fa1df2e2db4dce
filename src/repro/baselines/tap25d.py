"""TAP-2.5D: simulated-annealing thermal-aware chiplet placement.

Reimplementation of the baseline the paper compares against [Ma et al.,
DATE 2021].  TAP-2.5D anneals over continuous chiplet positions with
displace / swap / rotate moves and evaluates each accepted layout with a
full thermal analysis plus microbump-assigned wirelength — the same
objective RLPlanner optimizes, so Tables I/III compare like for like.

The placer supplies placements, its moves and the shelf packing as
every chain's start; :func:`repro.baselines.sa.anneal` runs the rest
under :data:`TAP25DConfig`, the one annealing config.

Pairing it with :class:`~repro.thermal.GridThermalSolver` reproduces
"TAP-2.5D (HotSpot)"; pairing it with
:class:`~repro.thermal.FastThermalModel` reproduces "TAP-2.5D* (fast
thermal model)".
"""

from __future__ import annotations

import numpy as np

from repro.baselines.sa import PlacerResult, SAConfig, anneal
from repro.chiplet import ChipletSystem, Placement
from repro.chiplet.validate import placement_is_legal, placement_violations
from repro.reward import RewardCalculator

__all__ = ["TAP25DConfig", "TAP25DPlacer"]

#: The placer's config: the one annealing config (schedule and budget).
TAP25DConfig = SAConfig

#: Share of proposals that displace one die.
DISPLACE_FRACTION = 0.6
#: Share of proposals that swap two dies; rotations take the rest (0.1).
SWAP_FRACTION = 0.3
#: Initial displacement radius as a fraction of the interposer extent;
#: it shrinks linearly to 10 % of itself as annealing cools.
MAX_DISPLACEMENT_FRACTION = 0.5


class TAP25DPlacer:
    """SA-based thermal-aware placer for one system.

    Parameters
    ----------
    system:
        The design to floorplan.
    reward_calculator:
        Shared objective evaluator (choice of thermal backend selects the
        TAP-2.5D variant).
    config:
        Annealing parameters.
    """

    def __init__(
        self,
        system: ChipletSystem,
        reward_calculator: RewardCalculator,
        config: SAConfig | None = None,
    ):
        self.system = system
        self.reward_calculator = reward_calculator
        self.config = config or SAConfig()
        self._names = list(system.chiplet_names)

    # ------------------------------------------------------------------
    # initial state
    # ------------------------------------------------------------------

    def initial_placement(self) -> Placement:
        """Legal starting layout: shelf packing in descending area."""
        interposer = self.system.interposer
        spacing = interposer.min_spacing
        placement = Placement(self.system)
        x = y = 0.0
        shelf_height = 0.0
        for name in self.system.placement_order():
            chiplet = self.system.chiplet(name)
            w, h = chiplet.width, chiplet.height
            if x + w > interposer.width:
                x = 0.0
                y += shelf_height + spacing
                shelf_height = 0.0
            if y + h > interposer.height:
                raise RuntimeError(
                    f"shelf packing failed for system {self.system.name!r}"
                )
            placement.place(name, x, y)
            x += w + spacing
            shelf_height = max(shelf_height, h)
        if placement_violations(placement):
            raise RuntimeError("initial shelf packing produced violations")
        return placement

    # ------------------------------------------------------------------
    # moves
    # ------------------------------------------------------------------

    def propose(
        self, placement: Placement, rng: np.random.Generator, progress: float
    ):
        """One annealing move; None when the proposal is illegal."""
        roll = rng.random()
        candidate = placement.copy()
        if roll < DISPLACE_FRACTION:
            self._displace(candidate, rng, progress)
        elif roll < DISPLACE_FRACTION + SWAP_FRACTION:
            if not self._swap(candidate, rng):
                return None
        else:
            if not self._rotate(candidate, rng):
                return None
        if not placement_is_legal(candidate):
            return None
        return candidate

    def _displace(self, placement, rng, progress) -> None:
        name = self._names[rng.integers(len(self._names))]
        interposer = self.system.interposer
        scale = MAX_DISPLACEMENT_FRACTION * (1.0 - 0.9 * progress)
        dx = rng.normal(0.0, scale * interposer.width / 2.0)
        dy = rng.normal(0.0, scale * interposer.height / 2.0)
        x, y, rotated = placement.positions[name]
        rect = placement.footprint(name)
        new_x = float(np.clip(x + dx, 0.0, interposer.width - rect.w))
        new_y = float(np.clip(y + dy, 0.0, interposer.height - rect.h))
        placement.place(name, new_x, new_y, rotated)

    def _swap(self, placement, rng) -> bool:
        if len(self._names) < 2:
            return False
        i, j = rng.choice(len(self._names), size=2, replace=False)
        name_a, name_b = self._names[i], self._names[j]
        xa, ya, rot_a = placement.positions[name_a]
        xb, yb, rot_b = placement.positions[name_b]
        placement.place(name_a, xb, yb, rot_a)
        placement.place(name_b, xa, ya, rot_b)
        # Keep both inside the interposer (sizes differ).
        interposer = self.system.interposer
        for name in (name_a, name_b):
            rect = placement.footprint(name)
            x = min(rect.x, interposer.width - rect.w)
            y = min(rect.y, interposer.height - rect.h)
            if x < 0 or y < 0:
                return False
            rotated = placement.positions[name][2]
            placement.place(name, x, y, rotated)
        return True

    def _rotate(self, placement, rng) -> bool:
        rotatable = [
            name
            for name in self._names
            if self.system.chiplet(name).rotatable
        ]
        if not rotatable:
            return False
        name = rotatable[rng.integers(len(rotatable))]
        x, y, rotated = placement.positions[name]
        placement.place(name, x, y, not rotated)
        rect = placement.footprint(name)
        interposer = self.system.interposer
        if rect.x2 > interposer.width or rect.y2 > interposer.height:
            return False
        return True

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------

    def run(self, resume_state=None, checkpoint_fn=None) -> PlacerResult:
        """Anneal every chain from the shelf packing (see
        :func:`repro.baselines.sa.anneal`); the best layout found."""
        return anneal(
            self.propose,
            lambda: [self.initial_placement()] * self.config.n_chains,
            self.reward_calculator,
            self.config,
            resume_state=resume_state,
            checkpoint_fn=checkpoint_fn,
        )
