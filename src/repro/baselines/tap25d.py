"""TAP-2.5D: simulated-annealing thermal-aware chiplet placement.

Reimplementation of the baseline the paper compares against [Ma et al.,
DATE 2021].  TAP-2.5D anneals over continuous chiplet positions with
displace / swap / rotate moves and evaluates each accepted layout with a
full thermal analysis plus microbump-assigned wirelength — the same
objective RLPlanner optimizes, so Tables I/III compare like for like.

Pairing it with :class:`~repro.thermal.GridThermalSolver` reproduces
"TAP-2.5D (HotSpot)"; pairing it with
:class:`~repro.thermal.FastThermalModel` reproduces "TAP-2.5D* (fast
thermal model)".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.sa import SAConfig, SimulatedAnnealing
from repro.chiplet import ChipletSystem, Placement
from repro.chiplet.validate import placement_is_legal, placement_violations
from repro.reward import RewardCalculator

__all__ = ["TAP25DConfig", "PlacerResult", "TAP25DPlacer"]


@dataclass(frozen=True)
class TAP25DConfig:
    """Placer parameters.

    Attributes
    ----------
    n_iterations:
        SA proposal budget.
    displace_fraction / swap_fraction / rotate_fraction:
        Move-type mix (must sum to 1).
    max_displacement_fraction:
        Initial displacement radius as a fraction of the interposer
        extent; shrinks linearly to 10 % of itself as annealing cools.
    time_limit:
        Wall-clock cap in seconds (time-matched comparisons).
    n_chains:
        Independent lockstep annealing chains; every chain spends the
        full ``n_iterations`` budget and the best layout over all chains
        wins.  Each step's candidates go through the batched reward
        path (one vectorized thermal pass per step).
    checkpoint_every:
        Snapshot cadence in SA iterations (0 = never); see
        :attr:`repro.baselines.sa.SAConfig.checkpoint_every`.
    """

    n_iterations: int = 2000
    initial_temperature: float | None = None
    final_temperature: float = 1e-3
    displace_fraction: float = 0.6
    swap_fraction: float = 0.3
    rotate_fraction: float = 0.1
    max_displacement_fraction: float = 0.5
    time_limit: float | None = None
    seed: int = 0
    n_chains: int = 1
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        mix = self.displace_fraction + self.swap_fraction + self.rotate_fraction
        if abs(mix - 1.0) > 1e-9:
            raise ValueError("move fractions must sum to 1")
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")


@dataclass
class PlacerResult:
    """Best floorplan found by the placer."""

    placement: Placement
    breakdown: object
    n_evaluations: int
    elapsed: float
    history: list = field(default_factory=list)

    @property
    def reward(self) -> float:
        return self.breakdown.reward


class WinnerScorer:
    """SA cost closures that carry the winner's breakdown out of the anneal.

    :meth:`evaluate_many` costs states (lower is better: the negated
    reward) through ``RewardCalculator.evaluate_batch`` and keeps the
    breakdown of the lowest-cost state scored.  The engine's winner is
    normally that very object (its best is the first strict minimum
    over the states it accepted), so :meth:`winner_breakdown` returns it
    without another evaluation.
    Only when it is not (the winner came from a resumed snapshot, was a
    tie, or was beaten by a calibration probe) is the winner scored
    afresh.

    Parameters
    ----------
    reward_calculator:
        The shared objective.
    to_placement:
        Maps an annealing state to the placement it scores (identity
        when the states are placements).
    """

    def __init__(self, reward_calculator: RewardCalculator, to_placement=None):
        self.reward_calculator = reward_calculator
        self.to_placement = to_placement or (lambda state: state)
        # The lowest-cost state scored so far, its cost and breakdown.
        self._state, self._cost, self._breakdown = None, np.inf, None

    def evaluate_many(self, states) -> np.ndarray:
        breakdowns = self.reward_calculator.evaluate_batch(
            [self.to_placement(state) for state in states]
        )
        costs = np.array([-b.reward for b in breakdowns], dtype=np.float64)
        k = int(np.argmin(costs))
        if costs[k] < self._cost:
            self._state, self._cost, self._breakdown = (
                states[k], costs[k], breakdowns[k]
            )
        return costs

    def winner_breakdown(self, state):
        """The :class:`RewardBreakdown` of the engine's best state."""
        if state is self._state:
            return self._breakdown
        return self.reward_calculator.evaluate(self.to_placement(state))


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
        config: TAP25DConfig | None = None,
    ):
        self.system = system
        self.reward_calculator = reward_calculator
        self.config = config or TAP25DConfig()
        self._names = list(system.chiplet_names)

    # ------------------------------------------------------------------
    # initial state
    # ------------------------------------------------------------------

    def initial_placement(self, rng: np.random.Generator = None) -> Placement:
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
        cfg = self.config
        roll = rng.random()
        candidate = placement.copy()
        if roll < cfg.displace_fraction:
            self._displace(candidate, rng, progress)
        elif roll < cfg.displace_fraction + cfg.swap_fraction:
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
        scale = self.config.max_displacement_fraction * (1.0 - 0.9 * progress)
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
        """Anneal from the shelf packing; returns the best layout found.

        The SA engine advances all ``config.n_chains`` chains in
        lockstep and each step's candidates are costed through
        ``RewardCalculator.evaluate_batch`` — one batched thermal pass
        per iteration instead of one evaluation per chain.

        ``checkpoint_fn``/``resume_state`` pass straight through to the
        SA engine (see :meth:`SimulatedAnnealing.run`): a run resumed
        from a snapshot reproduces the uninterrupted run bitwise.

        The winner's :class:`RewardBreakdown` is carried out of the
        anneal rather than re-evaluated (see :class:`WinnerScorer`).
        """
        cfg = self.config
        start = time.perf_counter()
        scorer = WinnerScorer(self.reward_calculator)
        engine = SimulatedAnnealing(
            propose=self.propose,
            evaluate_many=scorer.evaluate_many,
            config=SAConfig(
                n_iterations=cfg.n_iterations,
                initial_temperature=cfg.initial_temperature,
                final_temperature=cfg.final_temperature,
                time_limit=cfg.time_limit,
                seed=cfg.seed,
                n_chains=cfg.n_chains,
                checkpoint_every=cfg.checkpoint_every,
            ),
        )
        rng = np.random.default_rng(cfg.seed)
        # A resume ignores the initial state (the snapshot carries the
        # incumbents), so don't pay for shelf packing again.
        initial = None if resume_state is not None else self.initial_placement(rng)
        result = engine.run(
            initial,
            resume_state=resume_state,
            checkpoint_fn=checkpoint_fn,
        )
        best_placement = result.best_state
        breakdown = scorer.winner_breakdown(best_placement)
        # Fold the interrupted leg's wall clock back in so a resumed
        # run reports its full runtime, not just the final leg.
        prior = resume_state["elapsed"] if resume_state is not None else 0.0
        return PlacerResult(
            placement=best_placement,
            breakdown=breakdown,
            n_evaluations=result.n_evaluations,
            elapsed=prior + time.perf_counter() - start,
            history=result.history,
        )
