"""Per-wire microbump assignment (TAP-2.5D's wirelength optimization).

Every inter-chiplet net is a bundle of ``wires`` point-to-point links.
Each wire occupies one bump site on each endpoint die; a site carries at
most one wire (per ``wire_group_size`` wires — real D2D buses cluster
several signals per bump group, and grouping also bounds the assignment
cost for multi-thousand-wire bundles).

Nets are processed in descending wire count (fattest bundles get first
pick, as in TAP-2.5D); within a net, site pairs are chosen either

* ``"greedy"`` — accept free (site_a, site_b) pairs from the
  sorted-distance order in first-in-row-and-column passes (close to a
  closest-free-pair sweep but not identical; see
  :meth:`BumpAssigner._pair_greedy`), or
* ``"hungarian"`` — optimal pairing between the k best candidate sites on
  each side via :func:`scipy.optimize.linear_sum_assignment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.chiplet import Placement
from repro.bumps.sites import site_coordinates

__all__ = ["NetAssignment", "BumpAssignment", "BumpAssigner"]


#: Entries of the sorted-distance order resolved together by the greedy
#: pairing (part of its rule, see :meth:`BumpAssigner._pair_greedy`).
_CHUNK = 4096
#: A pass accepting at most this many entries hands the rest of its
#: chunk to the sequential sweep.
_NARROW_PASS = 2


def _free_chunks(
    dist: np.ndarray, used_rows: np.ndarray, used_cols: np.ndarray
):
    """Yield each chunk of the stable sorted order of ``dist``, as the
    ``(rows, cols)`` of its entries whose row and column are free.

    ``used_rows`` / ``used_cols`` are read when a chunk is built, so the
    consumer marks its acceptances between chunks.  Chunk ``k`` is
    positions ``[k * _CHUNK, (k + 1) * _CHUNK)`` of
    ``np.argsort(dist, axis=None, kind="stable")``, built without that
    argsort: only the values are sorted, which is several times cheaper.
    The chunk holds the entries whose value lies between its first and
    last value, except for ties at either end.  Ties of the first value
    that an earlier chunk holds need no cut: the consumer resolves every
    entry of a chunk it reads to the end, so each of them has a taken
    row or column.  Ties of the last value can run into the next chunk;
    a stable sort orders ties by index, so the ones past the chunk's end
    in index order are dropped.  Only the free entries are then
    argsorted.
    """
    values = dist.ravel()
    ranked = np.sort(values)
    for start in range(0, len(values), _CHUNK):
        stop = min(start + _CHUNK, len(values))
        low, high = ranked[start], ranked[stop - 1]
        run = np.flatnonzero((values >= low) & (values <= high))
        run_values = values[run]
        rows, cols = np.divmod(run, dist.shape[1])
        free = ~used_rows[rows] & ~used_cols[cols]
        if stop < len(values) and ranked[stop] == high:
            here = stop - np.searchsorted(ranked, high)
            free[np.flatnonzero(run_values == high)[here:]] = False
        order = np.argsort(run_values[free], kind="stable")
        yield rows[free][order], cols[free][order]


def _pass_heads(
    rows: np.ndarray, cols: np.ndarray, n_lines: int
) -> np.ndarray:
    """Positions that come first in both their row and their column.

    ``rows`` and ``cols`` are ints in ``[0, n_lines)``; a reversed
    scatter makes the earliest position of each row (column) win.
    """
    positions = np.arange(len(rows))
    first_row = np.empty(n_lines, dtype=np.intp)
    first_col = np.empty(n_lines, dtype=np.intp)
    first_row[rows[::-1]] = positions[::-1]
    first_col[cols[::-1]] = positions[::-1]
    return np.flatnonzero(
        (first_row[rows] == positions) & (first_col[cols] == positions)
    )


def _swept_order(
    rows: np.ndarray, cols: np.ndarray, n_lines: int
) -> np.ndarray:
    """Every position the passes would accept, in (pass, position) order.

    One sweep in sorted order applies the pass-number rule of
    :meth:`BumpAssigner._pair_greedy`.  A taken row or column accepts
    nothing later, so a removed entry only records its removal pass on
    the line it leaves free.
    """
    taken_row = [0] * n_lines  # pass that took the row, 0 while free
    taken_col = [0] * n_lines
    removed_row = [0] * n_lines  # latest removal pass in a free row
    removed_col = [0] * n_lines
    accepted, passes = [], []
    entries = zip(range(len(rows)), rows.tolist(), cols.tolist())
    for position, row, col in entries:
        by_row = taken_row[row]
        by_col = taken_col[col]
        if by_row:
            if not by_col and removed_col[col] < by_row:
                removed_col[col] = by_row
        elif by_col:
            if removed_row[row] < by_col:
                removed_row[row] = by_col
        else:
            taken = 1 + max(removed_row[row], removed_col[col])
            taken_row[row] = taken_col[col] = taken
            accepted.append(position)
            passes.append(taken)
    accepted = np.array(accepted, dtype=np.intp)
    return accepted[np.argsort(passes, kind="stable")]


@dataclass(frozen=True)
class NetAssignment:
    """Assigned bump pairs for one net.

    ``pairs`` has shape ``(n_groups, 2, 2)``: for each wire group, the
    (x, y) of the source-side and destination-side bump.  ``wires_per_pair``
    records how many physical wires each group carries.
    """

    net_name: str
    src: str
    dst: str
    pairs: np.ndarray
    wires_per_pair: np.ndarray

    @property
    def wirelength(self) -> float:
        """Total Manhattan wirelength of this net in mm."""
        deltas = np.abs(self.pairs[:, 0, :] - self.pairs[:, 1, :]).sum(axis=1)
        return float((deltas * self.wires_per_pair).sum())

    @property
    def total_wires(self) -> int:
        return int(self.wires_per_pair.sum())


@dataclass
class BumpAssignment:
    """Complete assignment for a placement."""

    nets: list = field(default_factory=list)

    @property
    def total_wirelength(self) -> float:
        """Sum of per-net Manhattan wirelengths in mm."""
        return sum(net.wirelength for net in self.nets)

    def net(self, name: str) -> NetAssignment:
        for assignment in self.nets:
            if assignment.net_name == name:
                return assignment
        raise KeyError(f"no assignment for net {name!r}")


class BumpAssigner:
    """Assign microbumps for complete placements of one system.

    Parameters
    ----------
    pitch:
        Bump-site pitch along the perimeter in mm.
    rings:
        Number of perimeter rings per die (more rings = more capacity).
    wire_group_size:
        Wires sharing one bump pair.  1 assigns every wire its own pair;
        larger values trade accuracy for speed on huge bundles.
    method:
        ``"greedy"`` (default) or ``"hungarian"``.
    """

    def __init__(
        self,
        pitch: float = 0.4,
        rings: int = 4,
        wire_group_size: int = 1,
        method: str = "greedy",
    ):
        if method not in ("greedy", "hungarian"):
            raise ValueError(f"unknown assignment method {method!r}")
        if wire_group_size < 1:
            raise ValueError("wire_group_size must be >= 1")
        self.pitch = pitch
        self.rings = rings
        self.wire_group_size = wire_group_size
        self.method = method

    def assign(self, placement: Placement) -> BumpAssignment:
        """Run the assignment over all nets with placed endpoints."""
        system = placement.system
        site_xy = {}
        site_free = {}
        for name in placement.placed_names:
            coords = site_coordinates(
                placement.footprint(name), pitch=self.pitch, rings=self.rings
            )
            site_xy[name] = coords
            site_free[name] = np.ones(len(coords), dtype=bool)

        ordered = sorted(
            (
                net
                for net in system.nets
                if placement.is_placed(net.src) and placement.is_placed(net.dst)
            ),
            key=lambda net: -net.wires,
        )
        result = BumpAssignment()
        for index, net in enumerate(ordered):
            # Capacity fallback: when free sites run short (dense buses on
            # small dies), merge more wires per bump group rather than
            # fail — the grouping is recorded in wires_per_pair.
            group = self.wire_group_size
            while True:
                groups = self._group_sizes(net.wires, group)
                free_src = int(site_free[net.src].sum())
                free_dst = int(site_free[net.dst].sum())
                if len(groups) <= min(free_src, free_dst) or group >= net.wires:
                    break
                group *= 2
            pairs = self._assign_net(
                site_xy[net.src],
                site_free[net.src],
                site_xy[net.dst],
                site_free[net.dst],
                len(groups),
                net,
            )
            result.nets.append(
                NetAssignment(
                    net_name=net.name or f"net{index}",
                    src=net.src,
                    dst=net.dst,
                    pairs=pairs,
                    wires_per_pair=groups,
                )
            )
        return result

    # ------------------------------------------------------------------

    def _group_sizes(self, wires: int, group: int | None = None) -> np.ndarray:
        """Split a bundle into groups of ``group`` wires."""
        if group is None:
            group = self.wire_group_size
        full, rest = divmod(wires, group)
        sizes = [group] * full + ([rest] if rest else [])
        return np.array(sizes, dtype=np.int64)

    def _assign_net(
        self,
        xy_a: np.ndarray,
        free_a: np.ndarray,
        xy_b: np.ndarray,
        free_b: np.ndarray,
        n_pairs: int,
        net,
    ) -> np.ndarray:
        """Pick ``n_pairs`` site pairs, marking sites occupied in place."""
        idx_a = np.where(free_a)[0]
        idx_b = np.where(free_b)[0]
        if len(idx_a) < n_pairs or len(idx_b) < n_pairs:
            raise RuntimeError(
                f"net {net.src}->{net.dst} needs {n_pairs} bump pairs but only "
                f"{len(idx_a)}/{len(idx_b)} free sites remain; increase rings "
                f"or wire_group_size"
            )
        if self.method == "hungarian":
            chosen_a, chosen_b = self._pair_hungarian(
                xy_a[idx_a], xy_b[idx_b], n_pairs
            )
        else:
            chosen_a, chosen_b = self._pair_greedy(
                xy_a[idx_a], xy_b[idx_b], n_pairs
            )
        sel_a = idx_a[chosen_a]
        sel_b = idx_b[chosen_b]
        free_a[sel_a] = False
        free_b[sel_b] = False
        return np.stack([xy_a[sel_a], xy_b[sel_b]], axis=1)

    @staticmethod
    def _pair_greedy(xy_a: np.ndarray, xy_b: np.ndarray, n_pairs: int):
        """Chunked greedy pairing over the sorted-distance order.

        Candidates are prefiltered to the sites nearest the peer die so
        the pairing touches a small matrix; the winning pairs always lie
        on the facing perimeters, so the filter does not change the
        result in practice.

        The rule, which ``tests/data/golden_bump_wirelength.json`` pins:
        the entries of the distance matrix, in stable sorted order, are
        taken in chunks of 4096, and each chunk starts from the entries
        whose row and column are both still free.  Within a chunk, pass
        1, 2, ... each accepts every remaining entry that comes first in
        both its row and its column among the remaining entries, and
        then removes every entry whose row or column it took.  Pairs come
        out in chunk, then pass, then sorted order, and the first
        ``n_pairs`` are kept.  This is *not* a sequential
        closest-free-pair sweep: a pass can accept farther pairs ahead
        of deferred nearer ones, so once the ``n_pairs`` cutoff bites the
        kept pairs can differ in order and in membership.

        An entry's fate depends only on the entries before it in its row
        and column.  If one of those is accepted, the entry is removed
        at the lowest pass among those acceptances (a later entry of its
        row or column cannot come first while it remains).  Otherwise it
        is accepted at pass 1 + the latest pass at which one of them was
        removed.  So one sweep in sorted order yields every pass number
        (:func:`_swept_order`).  The entries left after a pass follow
        the same rule with passes counted afresh, so the sweep can take
        over after any pass.  A pass costs a few array operations over
        the chunk, a sweep a few Python operations per entry: wide
        passes run vectorized, and once a pass would accept at most two
        entries (nets between far-apart dies take one pair per pass),
        the rest of the chunk is swept instead.  Chunks are built only
        as far as they are read (:func:`_free_chunks`).
        """
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
        dist = np.abs(np.subtract.outer(sub_a[:, 0], sub_b[:, 0]))
        dist += np.abs(np.subtract.outer(sub_a[:, 1], sub_b[:, 1]))
        chosen_a, chosen_b = [], []
        need = n_pairs
        used_rows = np.zeros(keep, dtype=bool)
        used_cols = np.zeros(keep, dtype=bool)
        for rows, cols in _free_chunks(dist, used_rows, used_cols):
            while need and len(rows):
                take = _pass_heads(rows, cols, keep)
                swept = len(take) <= _NARROW_PASS
                if swept:
                    take = _swept_order(rows, cols, keep)
                take = take[:need]
                chosen_a.append(rows[take])
                chosen_b.append(cols[take])
                used_rows[rows[take]] = True
                used_cols[cols[take]] = True
                need -= len(take)
                if swept:
                    break  # the sweep resolved the whole chunk
                remaining = ~used_rows[rows] & ~used_cols[cols]
                rows, cols = rows[remaining], cols[remaining]
            if not need:
                break
        return (
            near_a[np.concatenate(chosen_a)],
            near_b[np.concatenate(chosen_b)],
        )

    @staticmethod
    def _pair_hungarian(xy_a: np.ndarray, xy_b: np.ndarray, n_pairs: int):
        """Optimal pairing among the candidate sites nearest the peer die."""
        center_b = xy_b.mean(axis=0)
        center_a = xy_a.mean(axis=0)
        # Prefilter to the 2x nearest candidates per side to keep the
        # Hungarian cost matrix small on big perimeters.
        keep = max(n_pairs * 2, n_pairs)
        near_a = np.argsort(
            np.abs(xy_a - center_b).sum(axis=1), kind="stable"
        )[:keep]
        near_b = np.argsort(
            np.abs(xy_b - center_a).sum(axis=1), kind="stable"
        )[:keep]
        cost = np.abs(
            xy_a[near_a][:, None, :] - xy_b[near_b][None, :, :]
        ).sum(axis=2)
        rows, cols = linear_sum_assignment(cost)
        order = np.argsort(cost[rows, cols], kind="stable")[:n_pairs]
        return near_a[rows[order]], near_b[cols[order]]
