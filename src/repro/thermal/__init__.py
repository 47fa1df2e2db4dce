"""Thermal analysis substrate.

Two evaluators share one protocol:

* :class:`GridThermalSolver` — a HotSpot-style compact thermal model
  (finite-volume RC network over a layered 2.5D stack, solved with
  scipy.sparse).  This is the reproduction's stand-in for the HotSpot
  binary and serves as ground truth.
* :class:`FastThermalModel` — the paper's contribution: an LTI
  superposition surrogate built from self-/mutual-thermal-resistance
  tables characterized once against the grid solver.

The protocol, which :class:`~repro.reward.RewardCalculator` relies on
without probing for capabilities:

* ``evaluate_batch(placements) -> list[ThermalResult]``, one result per
  placement, in order; a result never depends on which other placements
  share the batch;
* ``evaluate(placement) -> ThermalResult``, a row of ``evaluate_batch``
  (bitwise equal to evaluating that placement as a batch of one);
* ``max_temperatures(placements) -> ndarray``, the peak temperature (K)
  of each placement without per-die results — the one thermal call
  behind every reward.

``max_temperatures`` may run on a thread other than the main one,
concurrently with bump assignment: the reward call overlaps the two
halves.  An evaluator must therefore share no mutable state with the
bump assigner (both only read the placements).

The fast model vectorizes its table lookups across the batch, while the
grid solver back-substitutes all right-hand sides through one shared
sparse factorization (its homogeneous conductance matrix is
placement-independent) — bitwise identical to sequential solves, which
is what lets the HotSpot-backed SA arm run multi-chain.
"""

from repro.thermal.materials import Material, MATERIALS
from repro.thermal.stack import Layer, LayerStack, default_chiplet_stack
from repro.thermal.config import ThermalConfig
from repro.thermal.result import ThermalResult
from repro.thermal.grid_solver import GridThermalSolver
from repro.thermal.fast_model import FastThermalModel, ResistanceTables
from repro.thermal.characterize import characterize_tables
from repro.thermal.metrics import error_metrics

__all__ = [
    "Material",
    "MATERIALS",
    "Layer",
    "LayerStack",
    "default_chiplet_stack",
    "ThermalConfig",
    "ThermalResult",
    "GridThermalSolver",
    "FastThermalModel",
    "ResistanceTables",
    "characterize_tables",
    "error_metrics",
]
