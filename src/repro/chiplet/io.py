"""JSON (de)serialization for chiplet systems.

The on-disk format is a plain dictionary so benchmark systems can be
shipped as data files and users can define their own designs without
touching Python.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.chiplet.chiplet import Chiplet
from repro.chiplet.netlist import Net
from repro.chiplet.system import ChipletSystem, Interposer
from repro.chiplet.validate import validate_system

__all__ = ["system_to_dict", "system_from_dict", "save_system", "load_system"]

_FORMAT_VERSION = 1


def system_to_dict(system: ChipletSystem) -> dict:
    """Serialize a system to JSON-compatible primitives."""
    return {
        "format_version": _FORMAT_VERSION,
        "name": system.name,
        "interposer": {
            "width": system.interposer.width,
            "height": system.interposer.height,
            "min_spacing": system.interposer.min_spacing,
        },
        "chiplets": [
            {
                "name": c.name,
                "width": c.width,
                "height": c.height,
                "power": c.power,
                "kind": c.kind,
                "rotatable": c.rotatable,
                "metadata": dict(c.metadata),
            }
            for c in system.chiplets
        ],
        "nets": [
            {"src": n.src, "dst": n.dst, "wires": n.wires, "name": n.name}
            for n in system.nets
        ],
        "metadata": dict(system.metadata),
    }


def system_from_dict(data: dict) -> ChipletSystem:
    """Inverse of :func:`system_to_dict` (tolerates missing optionals).

    Raises :class:`~repro.chiplet.ValidationError` for a system that
    cannot be placed at all (a die larger than the interposer, or more
    die area than interposer area).
    """
    version = data.get("format_version", _FORMAT_VERSION)
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported system format version {version}")
    interposer = Interposer(
        width=data["interposer"]["width"],
        height=data["interposer"]["height"],
        min_spacing=data["interposer"].get("min_spacing", 0.1),
    )
    chiplets = tuple(
        Chiplet(
            name=c["name"],
            width=c["width"],
            height=c["height"],
            power=c["power"],
            kind=c.get("kind", "generic"),
            rotatable=c.get("rotatable", True),
            metadata=c.get("metadata", {}),
        )
        for c in data["chiplets"]
    )
    nets = tuple(
        Net(
            src=n["src"],
            dst=n["dst"],
            wires=n.get("wires", 1),
            name=n.get("name", ""),
        )
        for n in data.get("nets", [])
    )
    system = ChipletSystem(
        name=data["name"],
        interposer=interposer,
        chiplets=chiplets,
        nets=nets,
        metadata=data.get("metadata", {}),
    )
    validate_system(system)
    return system


def save_system(system: ChipletSystem, path) -> None:
    """Write a system as pretty-printed JSON."""
    Path(path).write_text(json.dumps(system_to_dict(system), indent=2))


def load_system(path) -> ChipletSystem:
    """Read a system previously written by :func:`save_system`."""
    return system_from_dict(json.loads(Path(path).read_text()))
