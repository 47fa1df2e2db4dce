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
import time
from dataclasses import dataclass

import numpy as np

from repro.bumps import (
    BumpAssigner,
    estimate_wirelength,
    estimate_wirelength_batch,
)
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

    def thermal_penalty_many(self, t_celsius: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`thermal_penalty` over a temperature array.

        Each element runs the exact scalar operations (the logistic term
        is only evaluated where the excess is positive, so no overflow
        for far-below-limit temperatures either).
        """
        t_celsius = np.asarray(t_celsius, dtype=np.float64)
        excess = np.maximum(t_celsius - self.t_limit, 0.0)
        penalty = np.zeros_like(excess)
        hot = excess > 0.0
        if np.any(hot):
            t_hot = t_celsius[hot]
            penalty[hot] = excess[hot] ** self.alpha / (
                1.0 + np.exp(-(t_hot - self.t_limit))
            )
        return penalty

    def combine_many(
        self, wirelength_mm: np.ndarray, t_celsius: np.ndarray
    ) -> np.ndarray:
        """Elementwise :meth:`combine` over wirelength/temperature arrays."""
        return -self.lambda_wl * np.asarray(
            wirelength_mm, dtype=np.float64
        ) - self.mu * self.thermal_penalty_many(t_celsius)


@dataclass(frozen=True)
class RewardBreakdown:
    """Reward with its ingredients, for logging and tables."""

    reward: float
    wirelength: float
    max_temperature_c: float
    thermal_penalty: float
    elapsed_wirelength: float = 0.0
    elapsed_thermal: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.elapsed_wirelength + self.elapsed_thermal


class RewardCalculator:
    """Evaluate placements: microbump assignment, thermal analysis, reward.

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
        """Batched :meth:`wirelength`.

        The bundle estimator vectorizes across the batch; per-wire bump
        assignment is inherently sequential (sites are allocated
        greedily per placement) and runs as a loop.
        """
        placements = list(placements)
        if self.config.use_bump_assignment:
            return np.array(
                [
                    self.assigner.assign(p).total_wirelength
                    for p in placements
                ]
            )
        return estimate_wirelength_batch(placements)

    def evaluate_many(self, placements) -> np.ndarray:
        """Rewards of a batch of placements, one batched thermal pass.

        The search-baseline hot path: multi-chain annealers and batched
        random search only need the scalar objective per candidate, so
        this skips the per-placement :class:`RewardBreakdown`
        construction of :meth:`evaluate_batch`.  The thermal
        evaluator's ``exact_batched_rewards`` picks one of two paths:

        * ``False`` (the fast model): the whole batch is vectorized —
          batched wirelength, ``max_temperatures``, batched penalty.
          Rewards match :meth:`evaluate` to float rounding.
        * ``True`` (the grid solver): only the thermal analysis is
          batched (``max_temperatures``, bitwise by construction);
          wirelength and reward combination stay on the scalar
          codepaths per placement, so rewards are **bitwise** equal to
          :meth:`evaluate`.  The multi-chain HotSpot SA arm relies on
          that: ``SimulatedAnnealing.run_chains`` reproduces M
          sequential seeded runs only if every batched cost equals the
          scalar cost bit for bit (Metropolis comparisons amplify any
          last-ulp difference — the batched bundle wirelength sums nets
          in another order, the batched penalty uses ``np.exp`` where
          the scalar uses ``math.exp``).  The thermal solve is >99 % of
          a solver-backed reward, so the amortization is preserved.
        """
        placements = list(placements)
        if not placements:
            return np.empty(0)
        if self.thermal.exact_batched_rewards:
            max_temps = self.thermal.max_temperatures(placements)
            rewards = np.empty(len(placements))
            for i, placement in enumerate(placements):
                rewards[i] = self.config.combine(
                    self.wirelength(placement), max_temps[i] - KELVIN_OFFSET
                )
            self.evaluation_count += len(placements)
            return rewards
        wirelengths = self.wirelength_many(placements)
        max_temps = np.asarray(
            self.thermal.max_temperatures(placements), dtype=np.float64
        )
        self.evaluation_count += len(placements)
        return self.config.combine_many(wirelengths, max_temps - KELVIN_OFFSET)

    def evaluate_batch(self, placements) -> list:
        """Evaluate a batch of completed placements in one pass.

        All placements share this calculator's (already characterized)
        thermal evaluator and bump assigner; the whole batch's thermal
        analysis is one ``evaluate_batch`` call on the evaluator: one
        vectorized pass on the fast model, one shared factorization on
        the grid solver (whose breakdowns are then bitwise equal to
        :meth:`evaluate`).  Returns one :class:`RewardBreakdown` per
        placement, in order.
        """
        placements = list(placements)
        if not placements:
            return []
        breakdowns = []
        start = time.perf_counter()
        wirelengths = [self.wirelength(p) for p in placements]
        t_wl = (time.perf_counter() - start) / len(placements)
        thermal_results = self.thermal.evaluate_batch(placements)
        for wirelength, thermal_result in zip(wirelengths, thermal_results):
            t_celsius = thermal_result.max_temperature - KELVIN_OFFSET
            self.evaluation_count += 1
            breakdowns.append(
                RewardBreakdown(
                    reward=self.config.combine(wirelength, t_celsius),
                    wirelength=wirelength,
                    max_temperature_c=t_celsius,
                    thermal_penalty=self.config.thermal_penalty(t_celsius),
                    elapsed_wirelength=t_wl,
                    elapsed_thermal=thermal_result.elapsed,
                )
            )
        return breakdowns

    def evaluate(self, placement: Placement) -> RewardBreakdown:
        """Full reward evaluation of a complete placement."""
        start = time.perf_counter()
        wirelength = self.wirelength(placement)
        t_wl = time.perf_counter() - start

        thermal_result = self.thermal.evaluate(placement)
        t_celsius = thermal_result.max_temperature - KELVIN_OFFSET
        self.evaluation_count += 1
        return RewardBreakdown(
            reward=self.config.combine(wirelength, t_celsius),
            wirelength=wirelength,
            max_temperature_c=t_celsius,
            thermal_penalty=self.config.thermal_penalty(t_celsius),
            elapsed_wirelength=t_wl,
            elapsed_thermal=thermal_result.elapsed,
        )
