"""Tests for microbump site generation, assignment and wirelength."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.random_search import random_legal_placement
from repro.bumps import (
    BumpAssigner,
    estimate_wirelength,
    perimeter_sites,
)
from repro.chiplet import Chiplet, ChipletSystem, Interposer, Net, Placement
from repro.geometry import Rect
from repro.systems import get_benchmark

from golden_bump_utils import (
    GOLDEN_BUMP_PATH,
    GOLDEN_BUMP_SYSTEMS,
    golden_calculator,
    walk_placements,
)


@pytest.fixture
def two_die_system():
    return ChipletSystem(
        "pair",
        Interposer(30, 30),
        (Chiplet("a", 8, 8, 10.0), Chiplet("b", 8, 8, 10.0)),
        (Net("a", "b", wires=32, name="bus"),),
    )


def placed(system, positions):
    p = Placement(system)
    for name, (x, y) in positions.items():
        p.place(name, x, y)
    return p


class TestSites:
    def test_sites_on_perimeter_band(self):
        rect = Rect(5, 5, 8, 8)
        sites = perimeter_sites(rect, pitch=0.5, rings=2, edge_margin=0.2)
        assert len(sites) > 0
        for site in sites:
            assert (rect.x <= site.x < rect.x2 and rect.y <= site.y < rect.y2) or (
                site.x == rect.x2 or site.y == rect.y2
            )
            inset = 0.2 + site.ring * 0.5
            inner = Rect(
                rect.x + inset + 1e-9,
                rect.y + inset + 1e-9,
                rect.w - 2 * inset - 2e-9,
                rect.h - 2 * inset - 2e-9,
            )
            # Site sits on the ring boundary, not strictly inside it.
            on_boundary = (
                abs(site.x - (rect.x + inset)) < 1e-6
                or abs(site.x - (rect.x2 - inset)) < 1e-6
                or abs(site.y - (rect.y + inset)) < 1e-6
                or abs(site.y - (rect.y2 - inset)) < 1e-6
            )
            assert on_boundary, site

    def test_no_duplicate_sites(self):
        sites = perimeter_sites(Rect(0, 0, 6, 6), pitch=0.5, rings=3)
        coords = {(round(s.x, 6), round(s.y, 6)) for s in sites}
        assert len(coords) == len(sites)

    def test_ring_count_capacity(self):
        one = perimeter_sites(Rect(0, 0, 10, 10), pitch=0.5, rings=1)
        three = perimeter_sites(Rect(0, 0, 10, 10), pitch=0.5, rings=3)
        assert len(three) > 2 * len(one)

    def test_tiny_die_fewer_rings(self):
        sites = perimeter_sites(Rect(0, 0, 1.0, 1.0), pitch=0.4, rings=5)
        rings_present = {s.ring for s in sites}
        assert max(rings_present) < 5

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            perimeter_sites(Rect(0, 0, 5, 5), pitch=0.0)
        with pytest.raises(ValueError):
            perimeter_sites(Rect(0, 0, 5, 5), rings=0)


class TestEstimators:
    def test_estimate_matches_manual(self, two_die_system):
        p = placed(two_die_system, {"a": (0, 0), "b": (20, 10)})
        # centers (4,4) and (24,14): manhattan = 20 + 10 = 30; 32 wires
        assert estimate_wirelength(p) == pytest.approx(32 * 30.0)

    def test_estimate_ignores_unplaced(self, two_die_system):
        p = placed(two_die_system, {"a": (0, 0)})
        assert estimate_wirelength(p) == 0.0

    @pytest.mark.parametrize("name", ["multi_gpu", "cpu_dram", "ascend910"])
    def test_estimate_bitwise_equals_rect_reference(self, name):
        """Die centers built once give the per-net ``Rect`` figure exactly,
        rotated dies and partial placements included."""

        def reference(placement):
            total = 0.0
            for net in placement.system.nets:
                if placement.is_placed(net.src) and placement.is_placed(net.dst):
                    rect_a = placement.footprint(net.src)
                    rect_b = placement.footprint(net.dst)
                    total += net.wires * (
                        abs(rect_a.cx - rect_b.cx) + abs(rect_a.cy - rect_b.cy)
                    )
            return total

        system = get_benchmark(name).system
        rng = np.random.default_rng(5)
        rotated = 0
        for _ in range(20):
            p = random_legal_placement(system, rng)
            rotated += sum(rot for _, _, rot in p.positions.values())
            assert estimate_wirelength(p) == reference(p)
            for chiplet in system.chiplets[::2]:
                p.positions.pop(chiplet.name, None)
            assert estimate_wirelength(p) == reference(p)
        if any(chiplet.rotatable for chiplet in system.chiplets):
            assert rotated > 0


class TestAssignment:
    def test_total_wires_preserved(self, two_die_system):
        p = placed(two_die_system, {"a": (0, 0), "b": (20, 0)})
        assignment = BumpAssigner(pitch=0.5, rings=2).assign(p)
        assert assignment.net("bus").total_wires == 32

    def test_wirelength_positive_and_reasonable(self, two_die_system):
        p = placed(two_die_system, {"a": (0, 0), "b": (20, 0)})
        assignment = BumpAssigner(pitch=0.5, rings=2).assign(p)
        wl = assignment.total_wirelength
        estimate = estimate_wirelength(p)
        # Bumps sit near facing edges, so assigned < center estimate here.
        assert 0 < wl < estimate

    def test_closer_dies_shorter_wires(self, two_die_system):
        assigner = BumpAssigner(pitch=0.5, rings=2)
        near = assigner.assign(placed(two_die_system, {"a": (0, 0), "b": (9, 0)}))
        far = assigner.assign(placed(two_die_system, {"a": (0, 0), "b": (22, 0)}))
        assert near.total_wirelength < far.total_wirelength

    def test_greedy_vs_hungarian_consistent(self, two_die_system):
        p = placed(two_die_system, {"a": (0, 0), "b": (14, 9)})
        greedy = BumpAssigner(pitch=0.5, rings=2, method="greedy").assign(p)
        hungarian = BumpAssigner(pitch=0.5, rings=2, method="hungarian").assign(p)
        ratio = hungarian.total_wirelength / greedy.total_wirelength
        assert 0.8 < ratio < 1.2

    def test_wire_grouping_reduces_pairs(self, two_die_system):
        p = placed(two_die_system, {"a": (0, 0), "b": (20, 0)})
        fine = BumpAssigner(pitch=0.5, rings=2, wire_group_size=1).assign(p)
        coarse = BumpAssigner(pitch=0.5, rings=2, wire_group_size=8).assign(p)
        assert len(coarse.net("bus").pairs) == 4
        assert len(fine.net("bus").pairs) == 32
        assert coarse.net("bus").total_wires == fine.net("bus").total_wires == 32
        # Grouped wirelength approximates the fine-grained one.
        assert coarse.total_wirelength == pytest.approx(
            fine.total_wirelength, rel=0.35
        )

    def test_capacity_fallback_merges_groups(self):
        """When sites run short, wires share bump pairs instead of failing."""
        system = ChipletSystem(
            "tight",
            Interposer(20, 20),
            (Chiplet("a", 2, 2, 1.0), Chiplet("b", 2, 2, 1.0)),
            (Net("a", "b", wires=100000, name="fat"),),
        )
        p = placed(system, {"a": (0, 0), "b": (10, 0)})
        assignment = BumpAssigner(pitch=0.5, rings=1).assign(p)
        net = assignment.net("fat")
        assert net.total_wires == 100000
        assert net.wires_per_pair.max() > 8  # groups were merged

    def test_capacity_exhaustion_raises(self):
        """Dies too small for any bump site cannot be assigned at all."""
        system = ChipletSystem(
            "nosites",
            Interposer(20, 20),
            (Chiplet("a", 0.2, 0.2, 1.0), Chiplet("b", 2, 2, 1.0)),
            (Net("a", "b", wires=4),),
        )
        p = placed(system, {"a": (0, 0), "b": (10, 0)})
        with pytest.raises(RuntimeError, match="free sites"):
            BumpAssigner(pitch=0.5, rings=1).assign(p)

    def test_sites_not_shared_between_nets(self):
        system = ChipletSystem(
            "tri",
            Interposer(40, 40),
            (
                Chiplet("a", 8, 8, 1.0),
                Chiplet("b", 8, 8, 1.0),
                Chiplet("c", 8, 8, 1.0),
            ),
            (Net("a", "b", wires=20), Net("a", "c", wires=20)),
        )
        p = placed(system, {"a": (16, 16), "b": (0, 16), "c": (32, 16)})
        assignment = BumpAssigner(pitch=0.5, rings=2).assign(p)
        a_sites = set()
        for net in assignment.nets:
            side = 0 if net.src == "a" else 1
            for pair in net.pairs:
                key = (round(pair[side][0], 6), round(pair[side][1], 6))
                assert key not in a_sites, "bump site used twice"
                a_sites.add(key)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BumpAssigner(method="magic")
        with pytest.raises(ValueError):
            BumpAssigner(wire_group_size=0)

    @settings(deadline=None, max_examples=15)
    @given(
        bx=st.floats(10, 22, allow_nan=False),
        by=st.floats(0, 22, allow_nan=False),
        wires=st.integers(1, 64),
    )
    def test_assigned_never_much_longer_than_estimate(self, bx, by, wires):
        system = ChipletSystem(
            "prop",
            Interposer(30, 30),
            (Chiplet("a", 8, 8, 1.0), Chiplet("b", 8, 8, 1.0)),
            (Net("a", "b", wires=wires, name="n"),),
        )
        p = placed(system, {"a": (0, 0), "b": (bx, by)})
        a = p.footprint("a")
        if Rect(a.x - 0.1, a.y - 0.1, a.w + 2 * 0.1, a.h + 2 * 0.1).overlaps(
            p.footprint("b")
        ):
            return  # overlapping sample; assignment assumes legal placements
        assignment = BumpAssigner(pitch=0.5, rings=3).assign(p)
        # Perimeter bumps sit within half a die of the centers, so the
        # assigned length can exceed the center estimate by at most one
        # die extent per endpoint (+ slack for site congestion).
        estimate = estimate_wirelength(p)
        assert assignment.total_wirelength <= estimate + wires * 17.0
        assert assignment.total_wirelength >= 0.0


class TestGoldenBumpWirelength:
    """The default reward path's wirelength, pinned bitwise per system."""

    @pytest.fixture(scope="class")
    def golden(self):
        path = Path(__file__).resolve().parent.parent / GOLDEN_BUMP_PATH
        return json.loads(path.read_text())

    @pytest.mark.parametrize("system", GOLDEN_BUMP_SYSTEMS)
    def test_wirelength_matches_golden(self, golden, system):
        spec = get_benchmark(system)
        placements = walk_placements(spec)
        assert [p.as_dict() for p in placements] == golden[system]["placements"]
        calculator = golden_calculator(spec)
        scalar = [float(calculator.wirelength(p)).hex() for p in placements]
        assert scalar == golden[system]["wirelength"], (
            f"{system}: bump-assigned wirelength diverged from the golden; "
            "if intentional, rerun scripts/gen_golden_bump.py"
        )
        batched = calculator.wirelength_many(placements)
        assert [float(w).hex() for w in batched] == scalar
