"""Unit and property tests for repro.geometry.rect."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Rect


def rects(max_coord=50.0, max_size=20.0):
    finite = st.floats(
        min_value=-max_coord, max_value=max_coord, allow_nan=False
    )
    size = st.floats(min_value=0.1, max_value=max_size, allow_nan=False)
    return st.builds(Rect, finite, finite, size, size)


class TestConstruction:
    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0.0, 1.0)

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1.0, -2.0)

    def test_from_center(self):
        r = Rect.from_center(5.0, 5.0, 4.0, 2.0)
        assert r.x == 3.0 and r.y == 4.0
        assert r.center == (5.0, 5.0)

    def test_derived_coordinates(self):
        r = Rect(1.0, 2.0, 3.0, 4.0)
        assert r.x2 == 4.0
        assert r.y2 == 6.0
        assert r.cx == 2.5
        assert r.cy == 4.0
        assert r.area == 12.0


class TestPredicates:
    def test_abutting_rects_do_not_overlap(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(2, 0, 2, 2)
        assert not a.overlaps(b)
        assert not b.overlaps(a)

    def test_interior_intersection_overlaps(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(1.5, 1.5, 2, 2)
        assert a.overlaps(b)

    def test_containment(self):
        outer = Rect(0, 0, 10, 10)
        inner = Rect(1, 1, 3, 3)
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)
        assert outer.contains_rect(outer)


class TestMeasures:
    def test_gap_of_touching_rects_is_zero(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(2, 0, 2, 2)
        assert a.gap(b) == 0.0

    def test_gap_axis_separated(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(3, 0, 2, 2)
        assert a.gap(b) == pytest.approx(1.0)

    def test_gap_diagonal(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(2, 2, 1, 1)
        assert a.gap(b) == pytest.approx(math.sqrt(2.0))


class TestTransforms:
    def test_rotated_swaps_dims(self):
        r = Rect(1, 2, 3, 4).rotated()
        assert (r.w, r.h) == (4, 3)
        assert (r.x, r.y) == (1, 2)

    def test_translated(self):
        r = Rect(0, 0, 1, 1).translated(2.5, -1.0)
        assert (r.x, r.y) == (2.5, -1.0)


class TestProperties:
    @given(rects(), rects())
    def test_overlap_is_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(rects(), rects())
    def test_overlap_iff_positive_intersection_area(self, a, b):
        dx = min(a.x2, b.x2) - max(a.x, b.x)
        dy = min(a.y2, b.y2) - max(a.y, b.y)
        overlap_area = dx * dy if dx > 0.0 and dy > 0.0 else 0.0
        assert a.overlaps(b) == (overlap_area > 0.0)

    @given(rects(), rects())
    def test_gap_zero_when_overlapping(self, a, b):
        if a.overlaps(b):
            assert a.gap(b) == 0.0

    @given(rects())
    def test_rotation_is_involution(self, r):
        assert r.rotated().rotated() == r

    @given(rects())
    def test_center_is_inside(self, r):
        assert r.x <= r.cx < r.x2 and r.y <= r.cy < r.y2
