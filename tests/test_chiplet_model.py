"""Tests for the chiplet data model: Chiplet, Net, ChipletSystem, Placement."""

import pytest

from repro.chiplet import (
    Chiplet,
    ChipletSystem,
    Interposer,
    Net,
    Placement,
)


@pytest.fixture
def system():
    chiplets = (
        Chiplet("cpu", 10, 8, 50.0, kind="cpu"),
        Chiplet("gpu", 12, 12, 120.0, kind="gpu"),
        Chiplet("hbm", 6, 8, 15.0, kind="hbm", rotatable=False),
    )
    nets = (
        Net("cpu", "gpu", wires=256, name="c2g"),
        Net("gpu", "hbm", wires=1024),
        Net("cpu", "hbm", wires=64),
    )
    return ChipletSystem("demo", Interposer(40, 40), chiplets, nets)


class TestChiplet:
    def test_area_and_density(self):
        c = Chiplet("a", 4, 5, 10.0)
        assert c.area == 20.0
        assert c.power_density == pytest.approx(0.5)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Chiplet("", 1, 1, 1)
        with pytest.raises(ValueError):
            Chiplet("a", 0, 1, 1)
        with pytest.raises(ValueError):
            Chiplet("a", 1, 1, -1)

    def test_footprint_rotation(self):
        c = Chiplet("a", 4, 2, 1.0)
        up = c.footprint(0, 0)
        rot = c.footprint(0, 0, rotated=True)
        assert (up.w, up.h) == (4, 2)
        assert (rot.w, rot.h) == (2, 4)

    def test_rotated_copy_preserves_identity(self):
        c = Chiplet("a", 4, 2, 7.0, kind="x")
        r = c.rotated_copy()
        assert (r.width, r.height) == (2, 4)
        assert r.power == 7.0 and r.name == "a" and r.kind == "x"


class TestNet:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Net("a", "a")

    def test_wires_positive(self):
        with pytest.raises(ValueError):
            Net("a", "b", wires=0)

    def test_other_endpoint(self):
        n = Net("a", "b")
        assert n.other("a") == "b"
        assert n.other("b") == "a"
        with pytest.raises(ValueError):
            n.other("c")


class TestSystem:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ChipletSystem(
                "bad",
                Interposer(10, 10),
                (Chiplet("a", 1, 1, 1), Chiplet("a", 2, 2, 2)),
            )

    def test_unknown_net_endpoint_rejected(self):
        with pytest.raises(ValueError):
            ChipletSystem(
                "bad",
                Interposer(10, 10),
                (Chiplet("a", 1, 1, 1),),
                (Net("a", "ghost"),),
            )

    def test_lookup(self, system):
        assert system.chiplet("gpu").power == 120.0
        with pytest.raises(KeyError):
            system.chiplet("nope")

    def test_aggregates(self, system):
        assert system.total_power == pytest.approx(185.0)
        assert system.total_chiplet_area == pytest.approx(80 + 144 + 48)
        assert 0 < system.utilization < 1
        assert system.total_wires == 256 + 1024 + 64

    def test_nets_of(self, system):
        assert len(system.nets_of("cpu")) == 2
        assert len(system.nets_of("gpu")) == 2

    def test_wires_between_merges_nets(self):
        sys2 = ChipletSystem(
            "m",
            Interposer(20, 20),
            (Chiplet("a", 1, 1, 1), Chiplet("b", 1, 1, 1)),
            (Net("a", "b", wires=3), Net("b", "a", wires=4)),
        )
        assert sys2.wires_between("a", "b") == 7

    def test_placement_order_by_area_then_power(self, system):
        order = system.placement_order()
        assert order[0] == "gpu"  # largest area
        assert set(order) == {"cpu", "gpu", "hbm"}


class TestPlacement:
    def test_place_and_footprint(self, system):
        p = Placement(system)
        p.place("gpu", 2.0, 3.0)
        fp = p.footprint("gpu")
        assert (fp.x, fp.y, fp.w, fp.h) == (2.0, 3.0, 12.0, 12.0)

    def test_rotated_footprint(self, system):
        p = Placement(system)
        p.place("cpu", 0.0, 0.0, rotated=True)
        fp = p.footprint("cpu")
        assert (fp.w, fp.h) == (8.0, 10.0)

    def test_unknown_chiplet_rejected(self, system):
        p = Placement(system)
        with pytest.raises(KeyError):
            p.place("ghost", 0, 0)

    def test_completeness(self, system):
        p = Placement(system)
        assert not p.is_complete
        for i, name in enumerate(system.chiplet_names):
            p.place(name, i * 13.0, 0.0)
        assert p.is_complete

    def test_unplace(self, system):
        p = Placement(system)
        p.place("gpu", 0, 0)
        p.unplace("gpu")
        assert not p.is_placed("gpu")
        p.unplace("gpu")  # idempotent

    def test_copy_is_independent(self, system):
        p = Placement(system)
        p.place("gpu", 0, 0)
        q = p.copy()
        q.place("cpu", 20, 20)
        assert not p.is_placed("cpu")

    def test_dict_roundtrip(self, system):
        p = Placement(system)
        p.place("gpu", 1.0, 2.0)
        p.place("cpu", 20.0, 3.0, rotated=True)
        q = Placement.from_dict(system, p.as_dict())
        assert q.positions == p.positions
