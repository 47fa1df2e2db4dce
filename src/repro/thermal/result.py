"""Thermal evaluation result container."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.thermal.config import KELVIN_OFFSET

__all__ = ["ThermalResult"]


@dataclass(frozen=True)
class ThermalResult:
    """Outcome of one thermal evaluation.

    Attributes
    ----------
    chiplet_temperatures:
        Name -> hottest-cell temperature of that die, in K.
    max_temperature:
        System maximum in K (max over chiplets).
    grid_temperatures:
        Optional full field, shape ``(n_layers, rows, cols)`` in K —
        the grid solver fills this, the surrogate leaves it ``None``.
    elapsed:
        Wall-clock seconds spent in the evaluation.
    """

    chiplet_temperatures: dict
    max_temperature: float
    grid_temperatures: np.ndarray | None = None
    elapsed: float = 0.0
    metadata: dict = field(default_factory=dict)

    @property
    def max_temperature_celsius(self) -> float:
        return self.max_temperature - KELVIN_OFFSET
