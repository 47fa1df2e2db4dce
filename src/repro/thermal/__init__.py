"""Thermal analysis substrate.

Two evaluators share one protocol:

* :class:`GridThermalSolver` — a HotSpot-style compact thermal model
  (finite-volume RC network over a layered 2.5D stack, solved with
  scipy.sparse).  This is the reproduction's stand-in for the HotSpot
  binary and serves as ground truth.
* :class:`FastThermalModel` — the paper's contribution: an LTI
  superposition surrogate built from self-/mutual-thermal-resistance
  tables characterized once against the grid solver.

The protocol, which :class:`~repro.reward.RewardCalculator` relies on:

* ``evaluate_batch(placements) -> list[ThermalResult]``, one result per
  placement, in order; a result never depends on which other placements
  share the batch;
* ``evaluate(placement) -> ThermalResult``, a row of ``evaluate_batch``
  (bitwise equal to evaluating that placement as a batch of one);
* ``max_temperatures(placements) -> ndarray``, the peak temperature (K)
  of each placement without per-die results — the one thermal call
  behind every reward.

* ``RELEASES_GIL``, a class constant: True where ``max_temperatures``
  spends its time outside the GIL (the grid solver's SuperLU calls).
  The reward call then runs ``max_temperatures`` on a worker thread,
  concurrently with bump assignment, so such an evaluator must share
  no mutable state with the bump assigner (both only read the
  placements).  An evaluator that declares False (the fast model) or
  nothing is called inline on the caller's thread, after the bumps.

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
