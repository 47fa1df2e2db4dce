"""Bundle-level wirelength estimators.

These are the cheap proxies used inside search loops; the exact figure
comes from :mod:`repro.bumps.assign` after microbump assignment.
"""

from __future__ import annotations

from repro.chiplet import Placement

__all__ = ["estimate_wirelength"]


def estimate_wirelength(placement: Placement) -> float:
    """Wires-weighted Manhattan center-to-center wirelength (mm).

    Every wire of a net is approximated by the Manhattan distance between
    the two die centers.  This tracks the assigned wirelength closely
    (bump rings sit symmetrically around the center) while costing a few
    microseconds.
    """
    system = placement.system
    # Die centers, built once per placement with Rect's float operations.
    centers = {}
    for name, (x, y, rotated) in placement.positions.items():
        chiplet = system.chiplet(name)
        w, h = (
            (chiplet.height, chiplet.width)
            if rotated
            else (chiplet.width, chiplet.height)
        )
        centers[name] = (x + w / 2.0, y + h / 2.0)
    total = 0.0
    for net in system.nets:
        if net.src in centers and net.dst in centers:
            ax, ay = centers[net.src]
            bx, by = centers[net.dst]
            total += net.wires * (abs(ax - bx) + abs(ay - by))
    return total

