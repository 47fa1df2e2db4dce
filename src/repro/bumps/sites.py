"""Candidate microbump sites on a chiplet's perimeter.

Die-to-die signals escape through microbumps near the die edge (the
interior is taken by power/ground).  Sites are generated as concentric
perimeter rings with a given pitch, outermost ring (ring 0) first, in
interposer coordinates.  :func:`site_coordinates` builds them as one
``(n, 2)`` array, the form the bump assigner consumes;
:func:`perimeter_sites` is the same sites as labelled :class:`BumpSite`
records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Rect

__all__ = ["BumpSite", "perimeter_sites", "site_coordinates"]


@dataclass(frozen=True)
class BumpSite:
    """One candidate bump location on a die.

    Attributes
    ----------
    x, y:
        Position in interposer coordinates (mm).
    edge:
        Which die edge the site belongs to: ``"n" | "e" | "s" | "w"``.
    ring:
        0 for the outermost ring, increasing inward.
    """

    x: float
    y: float
    edge: str
    ring: int


def perimeter_sites(
    rect: Rect,
    pitch: float = 0.4,
    rings: int = 2,
    edge_margin: float = 0.15,
) -> list:
    """Generate bump sites along the perimeter of ``rect``.

    Parameters
    ----------
    rect:
        Die footprint in interposer coordinates.
    pitch:
        Site spacing along an edge in mm (also the ring-to-ring spacing).
    rings:
        Number of concentric rings.
    edge_margin:
        Distance from the die edge to the outermost ring, in mm.

    Returns
    -------
    list of :class:`BumpSite`, outermost ring first.  Each ring lists
    its N and S sites in pairs, x ascending, then its E and W sites in
    pairs, y ascending.  Corner positions are excluded from the vertical
    edges to avoid duplicates.  The coordinates are exactly the rows of
    :func:`site_coordinates`.
    """
    sites = []
    for ring, (horizontal, vertical) in enumerate(
        _ring_blocks(rect, pitch, rings, edge_margin)
    ):
        for block, edges in ((horizontal, "ns"), (vertical, "ew")):
            for index, (x, y) in enumerate(block.tolist()):
                sites.append(BumpSite(x, y, edges[index % 2], ring))
    return sites


def site_coordinates(
    rect: Rect,
    pitch: float = 0.4,
    rings: int = 2,
    edge_margin: float = 0.15,
) -> np.ndarray:
    """``(n, 2)`` coordinates of :func:`perimeter_sites`, in its order."""
    blocks = [
        block
        for pair in _ring_blocks(rect, pitch, rings, edge_margin)
        for block in pair
    ]
    return np.concatenate(blocks) if blocks else np.empty((0, 2))


def _ring_blocks(rect: Rect, pitch: float, rings: int, edge_margin: float):
    """Yield ``(horizontal, vertical)`` site arrays per ring, outermost first.

    ``horizontal`` interleaves the N and S edges (x ascending),
    ``vertical`` the E and W edges without the corners (y ascending).
    """
    if pitch <= 0:
        raise ValueError("pitch must be positive")
    if rings < 1:
        raise ValueError("need at least one ring")
    for ring in range(rings):
        inset = edge_margin + ring * pitch
        x1, x2 = rect.x + inset, rect.x2 - inset
        y1, y2 = rect.y + inset, rect.y2 - inset
        if x1 >= x2 or y1 >= y2:
            break  # die too small for this ring
        xs = _positions(x1, x2, pitch)
        ys = _positions(y1, y2, pitch)[1:-1]
        horizontal = np.empty((len(xs), 2, 2))
        horizontal[:, :, 0] = xs[:, None]
        horizontal[:, 0, 1] = y2
        horizontal[:, 1, 1] = y1
        vertical = np.empty((len(ys), 2, 2))
        vertical[:, 0, 0] = x2
        vertical[:, 1, 0] = x1
        vertical[:, :, 1] = ys[:, None]
        yield horizontal.reshape(-1, 2), vertical.reshape(-1, 2)


def _positions(lo: float, hi: float, pitch: float) -> np.ndarray:
    """Evenly pitched positions in [lo, hi], centered in the span."""
    span = hi - lo
    count = max(int(span / pitch) + 1, 1)
    used = (count - 1) * pitch
    start = lo + (span - used) / 2.0
    return start + np.arange(count) * pitch
