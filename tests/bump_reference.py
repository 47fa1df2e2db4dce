"""Reference copies of the per-object bump sites and the pass-only pairing.

``perimeter_sites`` used to build one ``BumpSite`` per site in a Python
loop, and ``BumpAssigner._pair_greedy`` resolved every chunk of the
sorted-distance order with the vectorized first-in-row-and-column passes
below, one pass at a time.  The production code now builds the sites as
arrays and reaches the same pairing faster (lazily sorted chunks, and a
sequential sweep once the passes turn narrow); this module keeps the old
code verbatim as the oracle ``test_bumps_pairing.py`` compares against.
"""

from __future__ import annotations

import numpy as np

from repro.bumps import BumpSite


def reference_perimeter_sites(
    rect,
    pitch: float = 0.4,
    rings: int = 2,
    edge_margin: float = 0.15,
) -> list:
    """The per-object site loop: ``BumpSite`` list, outermost ring first."""
    if pitch <= 0:
        raise ValueError("pitch must be positive")
    if rings < 1:
        raise ValueError("need at least one ring")
    sites = []
    for ring in range(rings):
        inset = edge_margin + ring * pitch
        x1, x2 = rect.x + inset, rect.x2 - inset
        y1, y2 = rect.y + inset, rect.y2 - inset
        if x1 >= x2 or y1 >= y2:
            break  # die too small for this ring
        xs = _positions(x1, x2, pitch)
        ys = _positions(y1, y2, pitch)
        for x in xs:
            sites.append(BumpSite(x, y2, "n", ring))
            sites.append(BumpSite(x, y1, "s", ring))
        for y in ys[1:-1] if len(ys) > 2 else []:
            sites.append(BumpSite(x2, y, "e", ring))
            sites.append(BumpSite(x1, y, "w", ring))
    return sites


def _positions(lo: float, hi: float, pitch: float) -> np.ndarray:
    """Evenly pitched positions in [lo, hi], centered in the span."""
    span = hi - lo
    count = max(int(span / pitch) + 1, 1)
    used = (count - 1) * pitch
    start = lo + (span - used) / 2.0
    return start + np.arange(count) * pitch


def _first_occurrence(values: np.ndarray, n_values: int) -> np.ndarray:
    """Mask of positions holding the first occurrence of each value.

    ``values`` are ints in ``[0, n_values)``.  O(n), no sorting: a
    reversed scatter makes the earliest position win.
    """
    first = np.full(n_values, -1, dtype=np.int64)
    first[values[::-1]] = np.arange(len(values) - 1, -1, -1)
    mask = np.zeros(len(values), dtype=bool)
    mask[first[first >= 0]] = True
    return mask


def reference_pair_greedy(xy_a: np.ndarray, xy_b: np.ndarray, n_pairs: int):
    """The pass-only pairing: ``(index_a, index_b)`` in acceptance order."""
    keep = min(max(2 * n_pairs, n_pairs + 16), len(xy_a), len(xy_b))
    center_b = xy_b.mean(axis=0)
    center_a = xy_a.mean(axis=0)
    near_a = np.argsort(
        np.abs(xy_a - center_b).sum(axis=1), kind="stable"
    )[:keep]
    near_b = np.argsort(
        np.abs(xy_b - center_a).sum(axis=1), kind="stable"
    )[:keep]
    sub_a = xy_a[near_a]
    sub_b = xy_b[near_b]
    dist = np.abs(sub_a[:, None, 0] - sub_b[None, :, 0]) + np.abs(
        sub_a[:, None, 1] - sub_b[None, :, 1]
    )
    order = np.argsort(dist, axis=None, kind="stable")
    all_rows, all_cols = np.divmod(order, dist.shape[1])
    chosen_a, chosen_b = [], []
    used_rows = np.zeros(keep, dtype=bool)
    used_cols = np.zeros(keep, dtype=bool)
    # Lazy sweep over the sorted entries in chunks: each chunk drops
    # already-used rows/cols vectorized, then resolves the intra-chunk
    # conflicts with the first-occurrence passes (small arrays).
    chunk_size = 4096
    for start in range(0, len(order), chunk_size):
        if len(chosen_a) >= n_pairs:
            break
        rows = all_rows[start : start + chunk_size]
        cols = all_cols[start : start + chunk_size]
        alive = ~used_rows[rows] & ~used_cols[cols]
        rows, cols = rows[alive], cols[alive]
        while len(chosen_a) < n_pairs and len(rows):
            take = np.flatnonzero(
                _first_occurrence(rows, keep) & _first_occurrence(cols, keep)
            )
            take = take[: n_pairs - len(chosen_a)]
            chosen_a.extend(rows[take].tolist())
            chosen_b.extend(cols[take].tolist())
            used_rows[rows[take]] = True
            used_cols[cols[take]] = True
            remaining = ~used_rows[rows] & ~used_cols[cols]
            rows, cols = rows[remaining], cols[remaining]
    return near_a[np.array(chosen_a)], near_b[np.array(chosen_b)]
