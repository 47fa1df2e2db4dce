"""Axis-aligned rectangles in millimetres.

The floorplanner, the bump assigner and the thermal solver all reason
about chiplet footprints as rectangles; this module is the single source
of truth for overlap, containment and distance semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Rect"]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle ``[x, x+w) x [y, y+h)``.

    Attributes
    ----------
    x, y:
        Lower-left corner in mm.
    w, h:
        Width and height in mm; must be positive.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"Rect needs positive size, got w={self.w}, h={self.h}")

    # -- derived coordinates -------------------------------------------------

    @property
    def x2(self) -> float:
        """Right edge (exclusive)."""
        return self.x + self.w

    @property
    def y2(self) -> float:
        """Top edge (exclusive)."""
        return self.y + self.h

    @property
    def cx(self) -> float:
        """Center x."""
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        """Center y."""
        return self.y + self.h / 2.0

    @property
    def center(self) -> tuple:
        return (self.cx, self.cy)

    @property
    def area(self) -> float:
        return self.w * self.h

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_center(cls, cx: float, cy: float, w: float, h: float) -> "Rect":
        """Build a rectangle from its center point."""
        return cls(cx - w / 2.0, cy - h / 2.0, w, h)

    # -- transforms ----------------------------------------------------------

    def translated(self, dx: float, dy: float) -> "Rect":
        return Rect(self.x + dx, self.y + dy, self.w, self.h)

    def rotated(self) -> "Rect":
        """90-degree rotation about the lower-left corner (w/h swapped)."""
        return Rect(self.x, self.y, self.h, self.w)

    # -- predicates ----------------------------------------------------------

    def overlaps(self, other: "Rect") -> bool:
        """True when the open interiors intersect (abutment is not overlap)."""
        return (
            self.x < other.x2
            and other.x < self.x2
            and self.y < other.y2
            and other.y < self.y2
        )

    def contains_rect(self, other: "Rect", tol: float = 1e-9) -> bool:
        """True when ``other`` lies fully inside (edges may coincide).

        ``tol`` (mm) absorbs float round-off from width/height storage;
        1e-9 mm is far below any manufacturable feature size.
        """
        return (
            other.x >= self.x - tol
            and other.y >= self.y - tol
            and other.x2 <= self.x2 + tol
            and other.y2 <= self.y2 + tol
        )

    # -- measures ------------------------------------------------------------

    def gap(self, other: "Rect") -> float:
        """Smallest axis gap between boundaries; 0.0 when touching/overlapping.

        This is the Chebyshev-style clearance used for minimum-spacing
        design rules between chiplets.
        """
        gx = max(max(other.x - self.x2, self.x - other.x2), 0.0)
        gy = max(max(other.y - self.y2, self.y - other.y2), 0.0)
        if gx == 0.0 and gy == 0.0:
            return 0.0
        return math.hypot(gx, gy)
