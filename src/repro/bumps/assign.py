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
from repro.bumps.sites import perimeter_sites

__all__ = ["NetAssignment", "BumpAssignment", "BumpAssigner"]


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
            sites = perimeter_sites(
                placement.footprint(name), pitch=self.pitch, rings=self.rings
            )
            coords = np.array([(s.x, s.y) for s in sites]).reshape(-1, 2)
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
        the sweep touches a small matrix; the winning pairs always lie on
        the facing perimeters, so the filter does not change the result
        in practice.

        This is *not* a sequential closest-free-pair sweep.  The sorted
        entries are walked in chunks of 4096.  Within a chunk, each pass
        accepts every alive entry that comes first in both its row and
        its column among the chunk's alive entries; an entry whose row
        or column is claimed first by an entry that is itself blocked
        waits for a later pass.  A pass that would overshoot
        ``n_pairs`` keeps its earliest entries.  Pairs are returned in
        pass order, not in sorted-distance order.  A pass can thus
        accept farther pairs ahead of deferred nearer ones, and once the
        ``n_pairs`` cutoff bites, that changes *which* pairs are kept:
        the result can differ from a sequential sweep in order and in
        membership (measured on random die pairs in the ROADMAP).
        ``tests/data/golden_bump_wirelength.json`` pins this behaviour
        as it is.
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
