"""Tests for system JSON I/O and placement validation."""

import json

import pytest

from repro.chiplet import (
    Chiplet,
    ChipletSystem,
    Interposer,
    Net,
    Placement,
    ValidationError,
    load_system,
    save_system,
    system_from_dict,
    system_to_dict,
    validate_placement,
    validate_system,
)
from repro.chiplet.validate import placement_violations
from repro.systems import get_benchmark


@pytest.fixture
def system():
    return ChipletSystem(
        "io-demo",
        Interposer(30, 30, min_spacing=0.5),
        (
            Chiplet("a", 10, 10, 50.0, kind="cpu", metadata={"node": "7nm"}),
            Chiplet("b", 5, 8, 10.0, rotatable=False),
        ),
        (Net("a", "b", wires=128, name="ab"),),
        metadata={"source": "unit-test"},
    )


class TestIO:
    def test_dict_roundtrip(self, system):
        data = system_to_dict(system)
        back = system_from_dict(data)
        assert back == system

    def test_file_roundtrip(self, system, tmp_path):
        path = tmp_path / "system.json"
        save_system(system, path)
        back = load_system(path)
        assert back == system
        assert back.chiplet("a").metadata["node"] == "7nm"

    def test_unsupported_version(self, system):
        data = system_to_dict(system)
        data["format_version"] = 99
        with pytest.raises(ValueError):
            system_from_dict(data)

    def test_missing_optionals_tolerated(self):
        data = {
            "name": "minimal",
            "interposer": {"width": 10, "height": 10},
            "chiplets": [{"name": "x", "width": 2, "height": 2, "power": 1.0}],
        }
        sys_ = system_from_dict(data)
        assert sys_.nets == ()
        assert sys_.interposer.min_spacing == 0.1

    def test_load_rejects_oversized_die(self, tmp_path):
        data = system_to_dict(get_benchmark("multi_gpu").system)
        data["chiplets"][0]["width"] = 1000.0
        path = tmp_path / "system.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="cannot fit"):
            load_system(path)

    def test_load_rejects_overpacked_interposer(self):
        data = {
            "name": "full",
            "interposer": {"width": 10, "height": 10},
            "chiplets": [
                {"name": f"c{i}", "width": 6, "height": 6, "power": 1.0}
                for i in range(4)
            ],  # 144 mm^2 on 100 mm^2
        }
        with pytest.raises(ValidationError, match="over-packs"):
            system_from_dict(data)


class TestValidateSystem:
    def test_valid_system_passes(self, system):
        validate_system(system)

    def test_oversized_chiplet_fails(self):
        sys_ = ChipletSystem(
            "big", Interposer(10, 10), (Chiplet("x", 12, 5, 1.0),)
        )
        # 12x5 fits rotated (5x12? no: 12 > 10 both ways) -> must fail
        with pytest.raises(ValidationError):
            validate_system(sys_)

    def test_rotated_fit_is_accepted(self):
        sys_ = ChipletSystem(
            "rot", Interposer(10, 20), (Chiplet("x", 15, 5, 1.0),)
        )
        validate_system(sys_)  # fits as 5x15

    def test_overpacked_system_fails(self):
        chiplets = tuple(
            Chiplet(f"c{i}", 6, 6, 1.0) for i in range(4)
        )  # 144 mm^2 on 100 mm^2
        sys_ = ChipletSystem("full", Interposer(10, 10), chiplets)
        with pytest.raises(ValidationError):
            validate_system(sys_)


class TestValidatePlacement:
    def test_legal_placement_passes(self, system):
        p = Placement(system)
        p.place("a", 0, 0)
        p.place("b", 15, 15)
        validate_placement(p)

    def test_incomplete_flagged(self, system):
        p = Placement(system)
        p.place("a", 0, 0)
        with pytest.raises(ValidationError, match="unplaced"):
            validate_placement(p)
        validate_placement(p, require_complete=False)

    def test_out_of_bounds_flagged(self, system):
        p = Placement(system)
        p.place("a", 25, 0)  # 10 wide on a 30 interposer
        p.place("b", 0, 15)
        with pytest.raises(ValidationError, match="bounds"):
            validate_placement(p)

    def test_overlap_flagged(self, system):
        p = Placement(system)
        p.place("a", 0, 0)
        p.place("b", 5, 5)
        with pytest.raises(ValidationError, match="overlaps"):
            validate_placement(p)

    def test_spacing_violation_flagged(self, system):
        p = Placement(system)
        p.place("a", 0, 0)
        p.place("b", 10.2, 0)  # gap 0.2 < min_spacing 0.5
        with pytest.raises(ValidationError, match="min_spacing"):
            validate_placement(p)

    def test_spacing_exact_boundary_ok(self, system):
        p = Placement(system)
        p.place("a", 0, 0)
        p.place("b", 10.5, 0)
        validate_placement(p)

    def test_violations_list_collects_everything(self, system):
        p = Placement(system)
        p.place("a", 25, 25)  # out of bounds both ways
        problems = placement_violations(p, require_complete=True)
        assert len(problems) >= 2
