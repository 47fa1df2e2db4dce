"""Discretization of the interposer into a placement / thermal grid.

The RL agent's action space is a ``rows x cols`` grid of candidate
lower-left corners; the thermal solver rasterizes chiplet power onto the
same kind of grid.  Both use :class:`PlacementGrid` so that cell <-> mm
conversions are consistent everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.rect import Rect

__all__ = ["PlacementGrid"]


@dataclass(frozen=True)
class PlacementGrid:
    """Uniform grid over a ``width x height`` mm region.

    Cell ``(row, col)`` covers ``[col*dx, (col+1)*dx) x [row*dy, (row+1)*dy)``
    with ``dx = width / cols`` and ``dy = height / rows``.  Rows grow with
    y so that ``grid[row, col]`` renders naturally with origin lower-left.
    """

    width: float
    height: float
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("grid region must have positive size")
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("grid must have positive shape")

    @property
    def dx(self) -> float:
        """Cell width in mm."""
        return self.width / self.cols

    @property
    def dy(self) -> float:
        """Cell height in mm."""
        return self.height / self.rows

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    @property
    def cell_area(self) -> float:
        """Area of one cell in mm^2."""
        return self.dx * self.dy

    @property
    def bounds(self) -> Rect:
        """The full gridded region as a rectangle at the origin."""
        return Rect(0.0, 0.0, self.width, self.height)

    # -- index conversions ---------------------------------------------------

    def cell_origin(self, row: int, col: int) -> tuple:
        """Lower-left mm coordinate of cell ``(row, col)``."""
        self._check_cell(row, col)
        return (col * self.dx, row * self.dy)

    def locate(self, x: float, y: float) -> tuple:
        """``(row, col)`` of the cell containing point ``(x, y)``.

        Points on the far right/top boundary are clamped into the last
        cell so ``locate(width, height)`` is valid.
        """
        if not (0.0 <= x <= self.width and 0.0 <= y <= self.height):
            raise ValueError(f"point ({x}, {y}) outside grid region")
        col = min(int(x / self.dx), self.cols - 1)
        row = min(int(y / self.dy), self.rows - 1)
        return (row, col)

    def flat_index(self, row: int, col: int) -> int:
        """Row-major flattened index (the RL action id)."""
        self._check_cell(row, col)
        return row * self.cols + col

    def unflatten(self, index: int) -> tuple:
        """Inverse of :meth:`flat_index`."""
        if not 0 <= index < self.n_cells:
            raise ValueError(f"flat index {index} out of range")
        return divmod(index, self.cols)

    # -- rasterization -------------------------------------------------------

    def coverage(self, rect: Rect) -> np.ndarray:
        """Fraction of each cell covered by ``rect`` (float array rows x cols).

        Exact area-weighted rasterization: a chiplet that half-covers a
        boundary cell contributes 0.5 there.  Used for power maps.
        """
        cover = np.zeros((self.rows, self.cols), dtype=np.float64)
        clipped_x1 = max(rect.x, 0.0)
        clipped_y1 = max(rect.y, 0.0)
        clipped_x2 = min(rect.x2, self.width)
        clipped_y2 = min(rect.y2, self.height)
        if clipped_x1 >= clipped_x2 or clipped_y1 >= clipped_y2:
            return cover
        col_lo = int(clipped_x1 / self.dx)
        col_hi = min(int(np.ceil(clipped_x2 / self.dx)), self.cols)
        row_lo = int(clipped_y1 / self.dy)
        row_hi = min(int(np.ceil(clipped_y2 / self.dy)), self.rows)
        cols = np.arange(col_lo, col_hi)
        rows = np.arange(row_lo, row_hi)
        # Per-cell overlap length along each axis, then outer product.
        x_overlap = np.minimum((cols + 1) * self.dx, clipped_x2) - np.maximum(
            cols * self.dx, clipped_x1
        )
        y_overlap = np.minimum((rows + 1) * self.dy, clipped_y2) - np.maximum(
            rows * self.dy, clipped_y1
        )
        cover[row_lo:row_hi, col_lo:col_hi] = np.outer(y_overlap, x_overlap) / (
            self.dx * self.dy
        )
        return cover

    def occupancy(self, rect: Rect) -> np.ndarray:
        """Boolean mask of cells whose interior intersects ``rect``."""
        return self.coverage(rect) > 0.0

    def _check_cell(self, row: int, col: int) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(
                f"cell ({row}, {col}) outside grid {self.rows}x{self.cols}"
            )
