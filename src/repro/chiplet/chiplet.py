"""The :class:`Chiplet` die description."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Rect

__all__ = ["Chiplet"]


@dataclass(frozen=True)
class Chiplet:
    """One die in a 2.5D system.

    Attributes
    ----------
    name:
        Unique identifier within a system (e.g. ``"gpu0"``).
    width, height:
        Footprint in mm.
    power:
        Total dissipated power in W, assumed uniform over the footprint
        (the granularity the paper's evaluation works at).
    kind:
        Free-form category tag (``"gpu"``, ``"hbm"``, ``"cpu"``, ...);
        used by benchmark definitions and reports, not by algorithms.
    rotatable:
        Whether the placer may swap width/height.
    """

    name: str
    width: float
    height: float
    power: float
    kind: str = "generic"
    rotatable: bool = True
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("chiplet needs a non-empty name")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"chiplet {self.name!r} needs positive size")
        if self.power < 0:
            raise ValueError(f"chiplet {self.name!r} has negative power")

    @property
    def area(self) -> float:
        """Footprint area in mm^2."""
        return self.width * self.height

    @property
    def power_density(self) -> float:
        """W per mm^2 over the footprint."""
        return self.power / self.area

    def footprint(self, x: float, y: float, rotated: bool = False) -> Rect:
        """Footprint rectangle with the lower-left corner at ``(x, y)``."""
        if rotated:
            return Rect(x, y, self.height, self.width)
        return Rect(x, y, self.width, self.height)
