"""The array-built bump sites and the fast greedy pairing against the old code.

``bump_reference.py`` holds verbatim copies of the per-object site loop
and of the pass-only pairing loop.  Sites must match bitwise and the
pairing must return identical index arrays in identical order, over die
pairs chosen to reach every path of the fast pairing: far-apart
diagonal dies (one pair per pass, several chunks, the sequential sweep),
facing dies (wide passes, cut off mid-pass), matrices of one chunk or
less, partially occupied dies and cpu_dram-sized 384 x 384 matrices.
"""

import numpy as np
import pytest

import repro.bumps.assign as assign_module
from repro.baselines.random_search import random_legal_placement
from repro.bumps import BumpAssigner, perimeter_sites, site_coordinates
from repro.geometry import Rect
from repro.reward import RewardCalculator
from repro.systems import get_benchmark

from bump_reference import reference_pair_greedy, reference_perimeter_sites

#: The reward path's site grid (``RewardCalculator``'s default assigner).
PITCH, RINGS = 0.25, 6
CASES_PER_KIND = 64


def _xy(sites) -> np.ndarray:
    return np.array([(s.x, s.y) for s in sites]).reshape(-1, 2)


class TestSiteArrays:
    RECTS = [
        Rect(3.1, 7.25, 8.0, 5.5),
        Rect(3.1, 7.25, 5.5, 8.0),  # the same die rotated
        Rect(0.0, 0.0, 12.0, 3.0),
        Rect(17.3, 2.9, 2.1, 9.7),
        Rect(1.0, 1.0, 1.3, 4.0),  # too narrow for all rings: early break
        Rect(5.0, 5.0, 0.5, 0.5),  # room for one ring, <= 2 positions
        Rect(5.0, 5.0, 0.62, 6.0),  # <= 2 positions along x on inner rings
        Rect(2.0, 2.0, 0.2, 0.2),  # no ring at all
    ]

    @pytest.mark.parametrize("rect", RECTS, ids=lambda r: f"{r.w}x{r.h}")
    @pytest.mark.parametrize("pitch,rings", [(0.25, 6), (0.4, 4), (0.5, 2)])
    def test_matches_per_object_loop_bitwise(self, rect, pitch, rings):
        old = reference_perimeter_sites(rect, pitch=pitch, rings=rings)
        new = site_coordinates(rect, pitch=pitch, rings=rings)
        assert new.shape == (len(old), 2)
        assert new.tobytes() == _xy(old).tobytes()
        view = perimeter_sites(rect, pitch=pitch, rings=rings)
        assert _xy(view).tobytes() == new.tobytes()
        assert [(s.edge, s.ring) for s in view] == [(s.edge, s.ring) for s in old]

    def test_rings_and_short_edges_are_reached(self):
        """The fixed rects cover the early break and <= 2-position edges."""
        full = len(reference_perimeter_sites(self.RECTS[0], PITCH, RINGS))
        partial = reference_perimeter_sites(self.RECTS[4], PITCH, RINGS)
        assert 0 < len({s.ring for s in partial}) < RINGS
        tiny = reference_perimeter_sites(self.RECTS[5], PITCH, RINGS)
        assert 0 < len(tiny) <= 4 and not {"e", "w"} & {s.edge for s in tiny}
        assert full > len(partial) > len(tiny)
        assert len(site_coordinates(self.RECTS[7], PITCH, RINGS)) == 0

    def test_random_footprints_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            w, h = rng.uniform(0.2, 14.0, size=2)
            x, y = rng.uniform(0.0, 40.0, size=2)
            rect = Rect(x, y, w, h)
            for footprint in (rect, rect.rotated()):
                old = _xy(reference_perimeter_sites(footprint, PITCH, RINGS))
                new = site_coordinates(footprint, PITCH, RINGS)
                assert new.tobytes() == old.tobytes()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            site_coordinates(Rect(0, 0, 5, 5), pitch=0.0)
        with pytest.raises(ValueError):
            site_coordinates(Rect(0, 0, 5, 5), rings=0)


def _die(rng, x, y, low=3.0, high=12.0):
    w, h = rng.uniform(low, high, size=2)
    return Rect(x, y, w, h)


def _sites(rect) -> np.ndarray:
    return site_coordinates(rect, PITCH, RINGS)


def _transpose(rng, xy_a, xy_b):
    """Randomly mirror the pair through the diagonal (vertical layouts)."""
    if rng.random() < 0.5:
        return xy_a[:, ::-1].copy(), xy_b[:, ::-1].copy()
    return xy_a, xy_b


def _diagonal(rng, low=3.0, high=12.0):
    a = _die(rng, 0.0, 0.0, low, high)
    sx, sy = rng.choice([-1.0, 1.0], size=2)
    b = _die(rng, 0.0, 0.0, low, high)
    gap_x, gap_y = rng.uniform(4.0, 30.0, size=2)
    bx = a.x2 + gap_x if sx > 0 else a.x - gap_x - b.w
    by = a.y2 + gap_y if sy > 0 else a.y - gap_y - b.h
    return _sites(a), _sites(Rect(bx, by, b.w, b.h))


def _facing(rng, low=3.0, high=12.0):
    a = _die(rng, 0.0, 0.0, low, high)
    b = _die(rng, 0.0, 0.0, low, high)
    gap = rng.uniform(0.1, 2.0)
    offset = rng.uniform(-b.h / 2.0, a.h / 2.0)
    b = Rect(a.x2 + gap, offset, b.w, b.h)
    return _transpose(rng, _sites(a), _sites(b))


def _pairs_between(rng, xy_a, xy_b, cap=192):
    most = min(len(xy_a), len(xy_b), cap)
    return int(rng.integers(4, max(most // 2, 5)))


def case_diagonal(rng):
    xy_a, xy_b = _diagonal(rng)
    return xy_a, xy_b, _pairs_between(rng, xy_a, xy_b)


def case_facing(rng):
    xy_a, xy_b = _facing(rng)
    return xy_a, xy_b, _pairs_between(rng, xy_a, xy_b)


def case_single_chunk(rng):
    """At most 64 x 64 = 4096 entries: one chunk, one sort."""
    xy_a, xy_b = (_facing if rng.random() < 0.5 else _diagonal)(rng, 0.6, 6.0)
    n_pairs = int(rng.integers(1, 33))
    n_pairs = min(n_pairs, len(xy_a), len(xy_b))
    return xy_a, xy_b, n_pairs


def case_partial(rng):
    """Sites left free by earlier nets: random subsets of both dies."""
    xy_a, xy_b = (_facing if rng.random() < 0.5 else _diagonal)(rng)
    free_a = rng.random(len(xy_a)) < rng.uniform(0.4, 0.95)
    free_b = rng.random(len(xy_b)) < rng.uniform(0.4, 0.95)
    xy_a, xy_b = xy_a[free_a], xy_b[free_b]
    return xy_a, xy_b, _pairs_between(rng, xy_a, xy_b)


def case_cpu_dram(rng):
    """192 pairs, 384 x 384 matrix, as on cpu_dram's widest buses."""
    xy_a, xy_b = (_facing if rng.random() < 0.5 else _diagonal)(rng, 9.0, 14.0)
    return xy_a, xy_b, 192


CASES = {
    "diagonal": case_diagonal,
    "facing": case_facing,
    "single_chunk": case_single_chunk,
    "partial": case_partial,
    "cpu_dram": case_cpu_dram,
}


@pytest.fixture
def trace(monkeypatch):
    """Record the chunks, passes and sweeps of each fast pairing call."""
    events = []
    chunks = assign_module._free_chunks
    heads = assign_module._pass_heads
    sweep = assign_module._swept_order

    def traced_chunks(*args):
        for chunk in chunks(*args):
            events.append(("chunk", len(chunk[0])))
            yield chunk

    def traced(kind, inner):
        def call(*args):
            out = inner(*args)
            events.append((kind, len(out)))
            return out

        return call

    monkeypatch.setattr(assign_module, "_free_chunks", traced_chunks)
    monkeypatch.setattr(assign_module, "_pass_heads", traced("pass", heads))
    monkeypatch.setattr(assign_module, "_swept_order", traced("sweep", sweep))
    return events


def _summary(events, n_pairs):
    """What one call exercised: chunks read, sweeps, a pass cut mid-way."""
    need, cut_mid_pass = n_pairs, False
    for index, (kind, size) in enumerate(events):
        swept_next = index + 1 < len(events) and events[index + 1][0] == "sweep"
        if kind == "pass" and not swept_next:
            cut_mid_pass |= size > need
            need -= min(size, need)
        elif kind == "sweep":
            need -= min(size, need)
    return {
        "chunks": sum(kind == "chunk" for kind, _ in events),
        "sweeps": sum(kind == "sweep" for kind, _ in events),
        "cut_mid_pass": cut_mid_pass,
    }


@pytest.mark.parametrize("kind", sorted(CASES))
def test_pairing_matches_pass_only_loop(kind, trace):
    rng = np.random.default_rng(sorted(CASES).index(kind))
    summaries = []
    for case in range(CASES_PER_KIND):
        xy_a, xy_b, n_pairs = CASES[kind](rng)
        want_a, want_b = reference_pair_greedy(xy_a, xy_b, n_pairs)
        trace.clear()
        got_a, got_b = BumpAssigner._pair_greedy(xy_a, xy_b, n_pairs)
        assert got_a.tolist() == want_a.tolist(), (kind, case)
        assert got_b.tolist() == want_b.tolist(), (kind, case)
        assert got_a.dtype == want_a.dtype and got_b.dtype == want_b.dtype
        summary = _summary(trace, n_pairs)
        summary["entries"] = min(
            max(2 * n_pairs, n_pairs + 16), len(xy_a), len(xy_b)
        ) ** 2
        summaries.append(summary)
    # Each kind reaches the path it is meant to cover.
    if kind == "diagonal":
        assert any(s["chunks"] >= 3 and s["sweeps"] >= 3 for s in summaries)
    elif kind == "facing":
        assert sum(s["cut_mid_pass"] for s in summaries) >= CASES_PER_KIND // 4
    elif kind == "single_chunk":
        assert all(s["entries"] <= assign_module._CHUNK for s in summaries)
        assert all(s["chunks"] == 1 for s in summaries)
    elif kind == "cpu_dram":
        assert all(s["entries"] == 384 * 384 for s in summaries)
        assert any(s["chunks"] >= 3 for s in summaries)
    assert any(s["sweeps"] for s in summaries)


class _PassOnlyAssigner(BumpAssigner):
    _pair_greedy = staticmethod(reference_pair_greedy)


SYSTEMS = ["multi_gpu", "ascend910", "cpu_dram"]


def assert_assign_matches_pass_only_loop(system):
    spec = get_benchmark(system)
    fast = RewardCalculator(None, spec.reward_config).assigner
    old = _PassOnlyAssigner(
        pitch=fast.pitch, rings=fast.rings, wire_group_size=fast.wire_group_size
    )
    rng = np.random.default_rng(3)
    for _ in range(6):
        placement = random_legal_placement(spec.system, rng)
        got, want = fast.assign(placement), old.assign(placement)
        assert [n.net_name for n in got.nets] == [n.net_name for n in want.nets]
        for g, w in zip(got.nets, want.nets):
            assert g.pairs.tobytes() == w.pairs.tobytes(), (system, g.net_name)
            assert g.wires_per_pair.tolist() == w.wires_per_pair.tolist()
        assert got.total_wirelength == want.total_wirelength


@pytest.mark.parametrize("system", SYSTEMS)
def test_assign_matches_pass_only_loop(system):
    assert_assign_matches_pass_only_loop(system)


def sequential_pair_greedy(xy_a, xy_b, n_pairs):
    """The true sequential closest-free-pair sweep: the pass-only
    loop's prefilter and sorted order, but each entry in turn is taken
    when its row and column are both free.  Not the pinned rule."""
    keep = min(max(2 * n_pairs, n_pairs + 16), len(xy_a), len(xy_b))
    near_a = np.argsort(
        np.abs(xy_a - xy_b.mean(axis=0)).sum(axis=1), kind="stable"
    )[:keep]
    near_b = np.argsort(
        np.abs(xy_b - xy_a.mean(axis=0)).sum(axis=1), kind="stable"
    )[:keep]
    sub_a, sub_b = xy_a[near_a], xy_b[near_b]
    dist = np.abs(sub_a[:, None, 0] - sub_b[None, :, 0]) + np.abs(
        sub_a[:, None, 1] - sub_b[None, :, 1]
    )
    order = np.argsort(dist, axis=None, kind="stable")
    free_rows, free_cols = set(range(keep)), set(range(keep))
    chosen_a, chosen_b = [], []
    for row, col in zip(*np.divmod(order, keep)):
        if len(chosen_a) == n_pairs:
            break
        if row in free_rows and col in free_cols:
            free_rows.remove(row)
            free_cols.remove(col)
            chosen_a.append(row)
            chosen_b.append(col)
    return near_a[np.array(chosen_a)], near_b[np.array(chosen_b)]


def test_a_sequential_sweep_fails_the_pin(monkeypatch):
    """The sequential rule differs from the pinned one once the
    ``n_pairs`` cutoff bites, so the assign pin catches it."""
    monkeypatch.setattr(
        BumpAssigner, "_pair_greedy", staticmethod(sequential_pair_greedy)
    )
    caught = []
    for system in SYSTEMS:
        try:
            assert_assign_matches_pass_only_loop(system)
        except AssertionError:
            caught.append(system)
    assert caught
