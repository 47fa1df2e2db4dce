"""Tests for the interconnect delay model."""

import pytest

from repro.bumps import BumpAssigner
from repro.bumps.delay import (
    NetDelay,
    WireTechnology,
    estimate_delays,
    worst_net_delay,
)
from repro.chiplet import Chiplet, ChipletSystem, Interposer, Net, Placement


@pytest.fixture
def assignment():
    system = ChipletSystem(
        "delay-demo",
        Interposer(40, 40),
        (
            Chiplet("a", 8, 8, 10.0),
            Chiplet("b", 8, 8, 10.0),
            Chiplet("c", 8, 8, 10.0),
        ),
        (
            Net("a", "b", wires=16, name="near"),
            Net("a", "c", wires=16, name="far"),
        ),
    )
    p = Placement(system)
    p.place("a", 0, 0)
    p.place("b", 10, 0)   # close neighbour
    p.place("c", 30, 30)  # far corner
    return BumpAssigner(pitch=0.5, rings=2).assign(p)


class TestWireTechnology:
    def test_zero_length_has_driver_delay_only(self):
        tech = WireTechnology()
        d0 = tech.elmore_delay_ns(0.0)
        expected = 0.69 * tech.driver_resistance * tech.load_capacitance / 1000
        assert d0 == pytest.approx(expected)

    def test_delay_monotone_in_length(self):
        tech = WireTechnology()
        delays = [tech.elmore_delay_ns(l) for l in (0.0, 5.0, 10.0, 20.0)]
        assert delays == sorted(delays)

    def test_delay_superlinear(self):
        """Distributed RC: doubling length more than doubles wire delay."""
        tech = WireTechnology(driver_resistance=0.0, load_capacitance=0.0)
        assert tech.elmore_delay_ns(20.0) > 2.0 * tech.elmore_delay_ns(10.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            WireTechnology(resistance_per_mm=-1.0)
        with pytest.raises(ValueError):
            WireTechnology().elmore_delay_ns(-1.0)


class TestEstimateDelays:
    def test_per_net_results(self, assignment):
        delays = estimate_delays(assignment)
        assert {d.net_name for d in delays} == {"near", "far"}
        for d in delays:
            assert isinstance(d, NetDelay)
            assert d.max_delay_ns >= d.mean_delay_ns > 0.0
            assert d.max_length_mm > 0.0

    def test_far_link_is_slower(self, assignment):
        delays = {d.net_name: d for d in estimate_delays(assignment)}
        assert delays["far"].max_delay_ns > delays["near"].max_delay_ns

    def test_worst_net(self, assignment):
        worst = worst_net_delay(assignment)
        assert worst.net_name == "far"

    def test_empty_assignment_rejected(self):
        from repro.bumps.assign import BumpAssignment

        with pytest.raises(ValueError):
            worst_net_delay(BumpAssignment())

    def test_faster_technology_lowers_delay(self, assignment):
        slow = estimate_delays(assignment, WireTechnology())
        fast = estimate_delays(
            assignment,
            WireTechnology(resistance_per_mm=0.2, capacitance_per_mm=0.1),
        )
        for s, f in zip(slow, fast):
            assert f.max_delay_ns < s.max_delay_ns

