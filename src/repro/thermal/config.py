"""Thermal solver configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.thermal.stack import LayerStack, default_chiplet_stack

__all__ = ["ThermalConfig"]

KELVIN_OFFSET = 273.15


@dataclass(frozen=True)
class ThermalConfig:
    """Parameters shared by the grid solver and the surrogate.

    Attributes
    ----------
    rows, cols:
        Grid resolution of every layer (HotSpot grid mode analog); the
        grid spans the whole package (interposer + margin).
    package_margin:
        Overhang of the spreader/sink package beyond the interposer on
        each side, in mm.  A realistic margin keeps the placement region
        away from the package's thermal boundary.
    ambient:
        Ambient temperature in K (HotSpot default 45 degC).
    r_convection:
        Total convective resistance sink-top -> ambient in K/W
        (HotSpot's ``r_convec``), distributed over the sink cells in
        proportion to cell area.
    r_board:
        Total secondary-path resistance interposer-bottom -> ambient in
        K/W; ``None`` makes the bottom adiabatic.
    stack:
        Layer stack (see :mod:`repro.thermal.stack`).  As in HotSpot,
        the chiplet layer is homogeneous die material and only its power
        map follows the placement, so the conductance matrix is
        placement-independent and the surrogate's LTI assumption is exact
        up to table interpolation, matching the paper's sub-Kelvin errors.
    """

    rows: int = 64
    cols: int = 64
    package_margin: float = 12.0
    ambient: float = 45.0 + KELVIN_OFFSET
    r_convection: float = 0.25
    r_board: float | None = 20.0
    stack: LayerStack = field(default_factory=default_chiplet_stack)

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise ValueError("thermal grid needs at least 2x2 cells")
        if self.package_margin < 0:
            raise ValueError("package_margin cannot be negative")
        if self.ambient <= 0:
            raise ValueError("ambient must be in Kelvin and positive")
        if self.r_convection <= 0:
            raise ValueError("r_convection must be positive")
        if self.r_board is not None and self.r_board <= 0:
            raise ValueError("r_board must be positive or None")
