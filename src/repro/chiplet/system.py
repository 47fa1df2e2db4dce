"""Chiplet system and placement containers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chiplet.chiplet import Chiplet
from repro.geometry import Rect

__all__ = ["Interposer", "ChipletSystem", "Placement"]


@dataclass(frozen=True)
class Interposer:
    """The passive carrier the chiplets sit on.

    Attributes
    ----------
    width, height:
        Usable placement region in mm (origin at lower-left).
    min_spacing:
        Minimum boundary-to-boundary clearance between chiplets in mm
        (assembly design rule; TAP-2.5D uses a comparable keep-out).
    """

    width: float
    height: float
    min_spacing: float = 0.1

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("interposer needs positive size")
        if self.min_spacing < 0:
            raise ValueError("min_spacing cannot be negative")

    @property
    def bounds(self) -> Rect:
        return Rect(0.0, 0.0, self.width, self.height)

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class ChipletSystem:
    """A named 2.5D design: interposer + chiplets + netlist.

    The container is immutable; placement state lives in
    :class:`Placement` so the same system can be explored concurrently.
    """

    name: str
    interposer: Interposer
    chiplets: tuple
    nets: tuple = ()
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        names = [c.name for c in self.chiplets]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate chiplet names in system {self.name!r}")
        known = set(names)
        for net in self.nets:
            for end in net.endpoints():
                if end not in known:
                    raise ValueError(
                        f"net endpoint {end!r} is not a chiplet of {self.name!r}"
                    )
        # Name lookup table: chiplet() sits on every footprint/validation
        # hot path, so a linear scan per call adds up fast.  The dataclass
        # is frozen, hence the direct __setattr__ (the map is derived
        # state, not a field).
        object.__setattr__(
            self, "_chiplets_by_name", {c.name: c for c in self.chiplets}
        )

    # -- lookups ---------------------------------------------------------

    @property
    def n_chiplets(self) -> int:
        return len(self.chiplets)

    @property
    def chiplet_names(self) -> tuple:
        return tuple(c.name for c in self.chiplets)

    def chiplet(self, name: str) -> Chiplet:
        try:
            return self._chiplets_by_name[name]
        except KeyError:
            raise KeyError(
                f"no chiplet {name!r} in system {self.name!r}"
            ) from None

    def nets_of(self, chiplet_name: str) -> tuple:
        """All nets incident to the named chiplet."""
        return tuple(n for n in self.nets if n.touches(chiplet_name))

    def wires_between(self, a: str, b: str) -> int:
        """Total wire count between two chiplets across all nets."""
        return sum(
            n.wires for n in self.nets if {a, b} == {n.src, n.dst}
        )

    # -- aggregates --------------------------------------------------------

    @property
    def total_power(self) -> float:
        """Sum of chiplet powers in W."""
        return sum(c.power for c in self.chiplets)

    @property
    def total_chiplet_area(self) -> float:
        """Sum of footprints in mm^2."""
        return sum(c.area for c in self.chiplets)

    @property
    def utilization(self) -> float:
        """Chiplet area over interposer area (a packing-difficulty proxy)."""
        return self.total_chiplet_area / self.interposer.area

    @property
    def total_wires(self) -> int:
        return sum(n.wires for n in self.nets)

    def placement_order(self) -> tuple:
        """Canonical sequential-placement order used by agent and env.

        Descending area, ties broken by descending power then name: big
        hot dies first, matching the intuition (and TAP-2.5D's practice)
        that anchors should be committed before fillers.
        """
        return tuple(
            c.name
            for c in sorted(
                self.chiplets, key=lambda c: (-c.area, -c.power, c.name)
            )
        )


@dataclass
class Placement:
    """Mutable mapping of chiplet name -> (x, y, rotated).

    ``(x, y)`` is the lower-left corner of the (possibly rotated)
    footprint in interposer coordinates.
    """

    system: ChipletSystem
    positions: dict = field(default_factory=dict)

    def place(self, name: str, x: float, y: float, rotated: bool = False) -> None:
        """Record a position for a chiplet (overwrites an existing one)."""
        self.system.chiplet(name)  # raises KeyError for unknown names
        self.positions[name] = (float(x), float(y), bool(rotated))

    def unplace(self, name: str) -> None:
        self.positions.pop(name, None)

    def is_placed(self, name: str) -> bool:
        return name in self.positions

    @property
    def placed_names(self) -> tuple:
        return tuple(self.positions.keys())

    @property
    def is_complete(self) -> bool:
        return len(self.positions) == self.system.n_chiplets

    def footprint(self, name: str) -> Rect:
        """Footprint rectangle of a placed chiplet."""
        x, y, rotated = self.positions[name]
        return self.system.chiplet(name).footprint(x, y, rotated)

    def footprints(self) -> dict:
        """Name -> footprint for every placed chiplet."""
        return {name: self.footprint(name) for name in self.positions}

    def copy(self) -> "Placement":
        return Placement(self.system, dict(self.positions))

    def as_dict(self) -> dict:
        """JSON-friendly snapshot of the positions."""
        return {
            name: {"x": x, "y": y, "rotated": rot}
            for name, (x, y, rot) in self.positions.items()
        }

    @classmethod
    def from_dict(cls, system: ChipletSystem, data: dict) -> "Placement":
        placement = cls(system)
        for name, pos in data.items():
            placement.place(name, pos["x"], pos["y"], pos.get("rotated", False))
        return placement
