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

Greedy pairings are memoized per assigner (see :class:`BumpAssigner`):
search loops keep re-pairing the same dies, and a repeated pairing
input returns the stored result instead of pairing again.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.chiplet import Placement
from repro.bumps.sites import site_coordinates

__all__ = [
    "NetAssignment",
    "BumpAssignment",
    "BumpAssigner",
    "MemoInfo",
    "PAIRING_MEMO_BYTES",
    "SITE_CACHE_BYTES",
]

#: Byte bound of each assigner's greedy-pairing memo (keys, stored
#: positions and :data:`_ENTRY_OVERHEAD` per entry); past it the least
#: recently used entries are evicted.  A 200-epoch RLPlanner arm on
#: multi_gpu fills 9.7 MB, and a long fast-model anneal keeps 99.95 %
#: of its hits under this bound (its hits revisit recent states).
PAIRING_MEMO_BYTES = 16 * 2**20
#: Bytes charged per memo entry on top of its key and position
#: buffers: the dict slot, the key ``bytes`` header and the array
#: header (about 300 B measured with :mod:`tracemalloc`).
_ENTRY_OVERHEAD = 320

#: Byte bound of each assigner's site-coordinate cache (the coordinate
#: arrays only); past it the least recently used footprints are
#: evicted.  A multi_gpu die has 800-1,000 sites (13-16 KB), so the
#: bound holds about 75 footprints: six placements whose dies all
#: differ, or more when they share dies, as search neighbours do
#: (16 random-walk placements from one start share 75).  Search loops
#: visit more footprints than that, so the bound, not the working
#: set, sets the cache's memory.
SITE_CACHE_BYTES = 2**20

#: :meth:`BumpAssigner.memo_info`'s result, in the style of
#: :func:`functools.lru_cache`'s ``cache_info()``.
MemoInfo = namedtuple("MemoInfo", ["hits", "misses", "entries", "bytes"])


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


def _entry_bytes(key: bytes, chosen: np.ndarray) -> int:
    """Bytes a pairing-memo entry is charged against the bound."""
    return len(key) + chosen.nbytes + _ENTRY_OVERHEAD


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

    Greedy pairings are memoized.  :meth:`_pair_greedy` is a pure
    function of the free sites of both dies and ``n_pairs``, and a
    die's sites are a function of its footprint (``pitch`` and
    ``rings`` are fixed per instance), so the memo key is exact: both
    footprints, the packed free-site masks and ``n_pairs``.  A hit
    returns the stored positions, and :meth:`_assign_net` marks the
    chosen sites occupied as on a miss, so every assignment is bitwise
    the one an unmemoized assigner computes.  The memo is bounded by
    :data:`PAIRING_MEMO_BYTES` with least-recently-used eviction; its
    stored arrays are read-only.  Hungarian pairings are not memoized.
    :meth:`memo_info` reports hits, misses, entries and bytes.

    Site coordinates are cached per exact footprint ``(x, y, w, h)``:
    :func:`~repro.bumps.sites.site_coordinates` is a pure function of
    it, so a cached array is the one a fresh call builds.  The stored
    arrays are read-only, and the cache keeps at most
    :data:`SITE_CACHE_BYTES` of them, evicting the least recently used.

    Each instance has its own memo and site cache, and pickling drops
    both: a copy sent to a pool or remote worker starts empty, and a
    warm assigner pickles to the same bytes as a cold one.  Neither
    takes a lock, so one assigner must not run :meth:`assign` on two
    threads at once.  The shipped callers never do: serve runs a
    bundle's evaluators under ``bundle.lock``, and the reward call's
    thermal thread never touches the assigner.  :meth:`memo_info` may
    be read from any thread (serve's ``/v1/stats`` does, without the
    lock); a read that races an assignment may mix counters from
    either side of one pairing.
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
        self._clear_caches()

    #: Attributes :meth:`_clear_caches` sets; pickling drops them.
    _CACHES = (
        "_memo",
        "_memo_bytes",
        "_hits",
        "_misses",
        "_sites",
        "_sites_bytes",
    )

    def _clear_caches(self) -> None:
        self._memo = OrderedDict()  # key -> (2, n_pairs) positions
        self._memo_bytes = 0
        self._hits = 0
        self._misses = 0
        self._sites = OrderedDict()  # (x, y, w, h) -> (n, 2) coordinates
        self._sites_bytes = 0

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in self._CACHES:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._clear_caches()

    def memo_info(self) -> MemoInfo:
        """Hits, misses, entries and bytes of the greedy-pairing memo."""
        return MemoInfo(
            self._hits, self._misses, len(self._memo), self._memo_bytes
        )

    def assign(self, placement: Placement) -> BumpAssignment:
        """Run the assignment over all nets with placed endpoints."""
        system = placement.system
        site_rect = {}
        site_xy = {}
        site_free = {}
        free_count = {}
        for name in placement.placed_names:
            rect = placement.footprint(name)
            footprint = (rect.x, rect.y, rect.w, rect.h)
            coords = self._site_coordinates(footprint, rect)
            site_rect[name] = footprint
            site_xy[name] = coords
            site_free[name] = np.ones(len(coords), dtype=bool)
            free_count[name] = len(coords)

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
                free = min(free_count[net.src], free_count[net.dst])
                if len(groups) <= free or group >= net.wires:
                    break
                group *= 2
            pairs = self._assign_net(
                site_xy[net.src],
                site_free[net.src],
                site_xy[net.dst],
                site_free[net.dst],
                len(groups),
                net,
                site_rect[net.src] + site_rect[net.dst],
            )
            free_count[net.src] -= len(groups)
            free_count[net.dst] -= len(groups)
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

    def _site_coordinates(self, footprint: tuple, rect) -> np.ndarray:
        """:func:`site_coordinates` of ``rect`` through the site cache."""
        coords = self._sites.get(footprint)
        if coords is not None:
            self._sites.move_to_end(footprint)
            return coords
        coords = site_coordinates(rect, pitch=self.pitch, rings=self.rings)
        coords.setflags(write=False)
        self._sites[footprint] = coords
        self._sites_bytes += coords.nbytes
        while self._sites_bytes > SITE_CACHE_BYTES:
            _, old = self._sites.popitem(last=False)
            self._sites_bytes -= old.nbytes
        return coords

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
        rects: tuple,
    ) -> np.ndarray:
        """Pick ``n_pairs`` site pairs, marking sites occupied in place.

        ``rects`` holds the ``(x, y, w, h)`` footprints of the source
        and destination dies, whose sites are ``xy_a`` and ``xy_b``.
        """
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
            chosen_a, chosen_b = self._pair_memoized(
                xy_a, xy_b, n_pairs, rects, free_a, free_b
            )
        sel_a = idx_a[chosen_a]
        sel_b = idx_b[chosen_b]
        free_a[sel_a] = False
        free_b[sel_b] = False
        return np.stack([xy_a[sel_a], xy_b[sel_b]], axis=1)

    def _pair_memoized(self, xy_a, xy_b, n_pairs, rects, free_a, free_b):
        """:meth:`_pair_greedy` of the free sites, through the memo.

        ``xy_a`` and ``xy_b`` are all the sites of the two dies and
        ``free_a`` / ``free_b`` mark the free ones; the result indexes
        the free sites.  The key packs the two footprints, ``n_pairs``
        and both free-site masks into one ``bytes``; each mask's length
        follows from its footprint, so the key determines the pairing
        input exactly, and a hit gathers no coordinates.
        """
        key = b"".join(
            (
                np.array([*rects, n_pairs], dtype=float).tobytes(),
                np.packbits(free_a).tobytes(),
                np.packbits(free_b).tobytes(),
            )
        )
        chosen = self._memo.get(key)
        if chosen is not None:
            self._memo.move_to_end(key)
            self._hits += 1
            return chosen
        self._misses += 1
        # Positions index the free sites, so the smallest unsigned
        # type that counts them holds them (uint16 on every bundled
        # die, a quarter of intp's bytes).
        xy_a, xy_b = xy_a[free_a], xy_b[free_b]
        chosen = np.stack(self._pair_greedy(xy_a, xy_b, n_pairs)).astype(
            np.min_scalar_type(max(len(xy_a), len(xy_b)))
        )
        chosen.setflags(write=False)
        self._memo[key] = chosen
        self._memo_bytes += _entry_bytes(key, chosen)
        while self._memo_bytes > PAIRING_MEMO_BYTES:
            old_key, old = self._memo.popitem(last=False)
            self._memo_bytes -= _entry_bytes(old_key, old)
        return chosen

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
