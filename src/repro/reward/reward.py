"""The joint wirelength/temperature reward.

The paper defines

    R = -lambda * W - mu * (max(T - T0, 0))^alpha / (1 + exp(-(T - T0)))

with ``W`` the total (microbump-assigned) wirelength, ``T`` the maximum
operating temperature, ``T0`` the temperature limit, and ``alpha`` a
smoothing exponent at ``T = T0``.  Below the limit only wirelength
matters; above it the thermal penalty takes over.

The calculator composes a wirelength evaluator (bump assignment or the
fast estimator) with a thermal evaluator (grid solver or fast model), so
all four method combinations of Tables I/III are a matter of wiring.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.bumps import BumpAssigner, estimate_wirelength
from repro.chiplet import Placement
from repro.thermal.config import KELVIN_OFFSET

__all__ = ["RewardConfig", "RewardBreakdown", "RewardCalculator"]


@dataclass(frozen=True)
class RewardConfig:
    """Weights and limits of the reward.

    Attributes
    ----------
    lambda_wl:
        Wirelength weight in 1/mm.  The defaults below were calibrated so
        reward magnitudes land in the paper's reported range (single
        digits to tens); benchmark definitions override per system.
    mu:
        Thermal-penalty weight.
    t_limit:
        ``T0`` in degC.
    alpha:
        Exponent of the above-limit excess.
    use_bump_assignment:
        True evaluates W via per-wire microbump assignment (the paper's
        reward calculator); False uses the bundle estimator.
    """

    lambda_wl: float = 3.3e-4
    mu: float = 1.0
    t_limit: float = 85.0
    alpha: float = 1.0
    use_bump_assignment: bool = True

    def __post_init__(self) -> None:
        if self.lambda_wl < 0 or self.mu < 0:
            raise ValueError("reward weights must be non-negative")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def thermal_penalty(self, t_celsius: float) -> float:
        """The paper's smoothed above-limit penalty (>= 0)."""
        excess = max(t_celsius - self.t_limit, 0.0)
        if excess == 0.0:
            return 0.0
        return excess**self.alpha / (1.0 + math.exp(-(t_celsius - self.t_limit)))

    def combine(self, wirelength_mm: float, t_celsius: float) -> float:
        """Reward of a (wirelength, max temperature) pair."""
        return -self.lambda_wl * wirelength_mm - self.mu * self.thermal_penalty(
            t_celsius
        )


@dataclass(frozen=True)
class RewardBreakdown:
    """Reward with its ingredients, for logging and tables."""

    reward: float
    wirelength: float
    max_temperature_c: float
    thermal_penalty: float


class RewardCalculator:
    """Evaluate placements: microbump assignment, thermal analysis, reward.

    Every entry point is a view of one scoring core over a list of
    placements: per-placement wirelength, one batched
    ``max_temperatures`` call on the thermal evaluator, and the scalar
    :meth:`RewardConfig.combine` per row.  :meth:`evaluate` is row 0 of
    a batch of one, so scalar and batched rewards are bitwise equal by
    construction on both evaluators.

    Parameters
    ----------
    thermal_evaluator:
        An evaluator with the :mod:`repro.thermal` protocol — either
        :class:`~repro.thermal.GridThermalSolver` (the HotSpot stand-in)
        or :class:`~repro.thermal.FastThermalModel` (the paper's).
    config:
        Reward weights/limits.
    assigner:
        Microbump assigner used when ``config.use_bump_assignment``.
    """

    def __init__(
        self,
        thermal_evaluator,
        config: RewardConfig | None = None,
        assigner: BumpAssigner | None = None,
    ):
        self.thermal = thermal_evaluator
        self.config = config or RewardConfig()
        # Dense default pitch/rings: enough perimeter capacity for the
        # kilowire coherence buses of the CPU-DRAM benchmark.
        self.assigner = assigner or BumpAssigner(
            pitch=0.25, rings=6, wire_group_size=8
        )
        self.evaluation_count = 0

    def wirelength(self, placement: Placement) -> float:
        """Total wirelength in mm under the configured evaluator."""
        if self.config.use_bump_assignment:
            return self.assigner.assign(placement).total_wirelength
        return estimate_wirelength(placement)

    def wirelength_many(self, placements) -> np.ndarray:
        """:meth:`wirelength` of each placement, in order."""
        return np.array([self.wirelength(p) for p in placements], dtype=float)

    def _score(self, placements: list) -> tuple:
        """The scoring core: ``(reward, wirelength, degC, penalty)`` arrays.

        Bump assignment is sequential per placement and the thermal
        evaluator amortizes its work across the batch (one vectorized
        pass on the fast model, one shared factorization on the grid
        solver); each row is then combined by the scalar reward rule, so
        a row never depends on the rest of the batch.  Multi-chain
        annealing relies on that: it reproduces sequential seeded runs
        only if every batched cost equals the scalar cost bit for bit,
        since Metropolis comparisons amplify any last-ulp difference.

        The two halves read nothing of each other, so they overlap: the
        batched ``max_temperatures`` call runs on a worker thread
        started here while this thread assigns bumps, and SuperLU's
        factorization and solves release the GIL, so a grid-backed
        call costs about the larger half instead of the sum.  The
        worker is joined before this method returns or raises; no
        thread outlives the call (callers fork worker processes between
        calls).  Errors surface as in a serial evaluation: a wirelength
        error wins (the worker is joined first), and a thermal error is
        re-raised as the same exception object.
        """
        n = len(placements)
        # [max temperatures (K), exception] of the thermal half.
        thermal = [None, None]

        def solve() -> None:
            try:
                thermal[0] = self.thermal.max_temperatures(placements)
            except BaseException as exc:
                thermal[1] = exc

        worker = threading.Thread(target=solve, name="reward-thermal")
        worker.start()
        try:
            wirelengths = self.wirelength_many(placements)
        finally:
            worker.join()
        if thermal[1] is not None:
            raise thermal[1]
        celsius = np.asarray(thermal[0], dtype=float) - KELVIN_OFFSET
        penalties = np.empty(n)
        rewards = np.empty(n)
        for i in range(n):
            t_celsius = float(celsius[i])
            penalties[i] = self.config.thermal_penalty(t_celsius)
            rewards[i] = self.config.combine(float(wirelengths[i]), t_celsius)
        self.evaluation_count += n
        return rewards, wirelengths, celsius, penalties

    def evaluate_many(self, placements) -> np.ndarray:
        """Rewards of a batch of placements (the search-loop hot path).

        Multi-chain annealers and batched search only need the scalar
        objective per candidate, so this skips building
        :class:`RewardBreakdown` objects.
        """
        return self._score(list(placements))[0]

    def evaluate_batch(self, placements) -> list:
        """One :class:`RewardBreakdown` per placement, in order."""
        return [
            RewardBreakdown(
                reward=float(reward),
                wirelength=float(wirelength),
                max_temperature_c=float(t_celsius),
                thermal_penalty=float(penalty),
            )
            for reward, wirelength, t_celsius, penalty in zip(
                *self._score(list(placements))
            )
        ]

    def evaluate(self, placement: Placement) -> RewardBreakdown:
        """Full reward evaluation of a complete placement."""
        return self.evaluate_batch([placement])[0]
