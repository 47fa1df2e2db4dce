"""Bundle-level wirelength estimators.

These are the cheap proxies used inside search loops; the exact figure
comes from :mod:`repro.bumps.assign` after microbump assignment.
"""

from __future__ import annotations

from repro.chiplet import Placement

__all__ = ["estimate_wirelength", "netlist_hpwl"]


def estimate_wirelength(placement: Placement) -> float:
    """Wires-weighted Manhattan center-to-center wirelength (mm).

    Every wire of a net is approximated by the Manhattan distance between
    the two die centers.  This tracks the assigned wirelength closely
    (bump rings sit symmetrically around the center) while costing a few
    microseconds.
    """
    system = placement.system
    total = 0.0
    for net in system.nets:
        if placement.is_placed(net.src) and placement.is_placed(net.dst):
            rect_a = placement.footprint(net.src)
            rect_b = placement.footprint(net.dst)
            total += net.wires * rect_a.center_manhattan(rect_b)
    return total


def netlist_hpwl(placement: Placement) -> float:
    """Half-perimeter wirelength of each net's bounding box, wire-weighted.

    The classic floorplanning metric, provided for comparability with
    monolithic floorplanners; for two-pin chiplet bundles it equals the
    Manhattan center distance.
    """
    system = placement.system
    total = 0.0
    for net in system.nets:
        if placement.is_placed(net.src) and placement.is_placed(net.dst):
            rect_a = placement.footprint(net.src)
            rect_b = placement.footprint(net.dst)
            width = abs(rect_a.cx - rect_b.cx)
            height = abs(rect_a.cy - rect_b.cy)
            total += net.wires * (width + height)
    return total
