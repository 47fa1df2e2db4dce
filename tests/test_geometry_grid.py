"""Unit and property tests for the placement grid."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import PlacementGrid, Rect


@pytest.fixture
def grid():
    return PlacementGrid(width=40.0, height=20.0, rows=10, cols=20)


class TestBasics:
    def test_cell_size(self, grid):
        assert grid.dx == pytest.approx(2.0)
        assert grid.dy == pytest.approx(2.0)
        assert grid.cell_area == pytest.approx(4.0)
        assert grid.n_cells == 200

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PlacementGrid(10, 10, 0, 5)
        with pytest.raises(ValueError):
            PlacementGrid(-1, 10, 5, 5)

    def test_cell_origin_and_center(self, grid):
        assert grid.cell_origin(0, 0) == (0.0, 0.0)
        assert grid.cell_origin(1, 3) == (6.0, 2.0)

    def test_cell_out_of_range(self, grid):
        with pytest.raises(ValueError):
            grid.cell_origin(10, 0)
        with pytest.raises(ValueError):
            grid.cell_origin(0, 20)

    def test_locate(self, grid):
        assert grid.locate(0.0, 0.0) == (0, 0)
        assert grid.locate(5.0, 3.0) == (1, 2)
        # Far boundary clamps into the last cell.
        assert grid.locate(40.0, 20.0) == (9, 19)

    def test_locate_outside_raises(self, grid):
        with pytest.raises(ValueError):
            grid.locate(-0.1, 0.0)
        with pytest.raises(ValueError):
            grid.locate(0.0, 20.1)

    def test_flat_index_roundtrip(self, grid):
        for row, col in [(0, 0), (3, 7), (9, 19)]:
            assert grid.unflatten(grid.flat_index(row, col)) == (row, col)

    def test_unflatten_out_of_range(self, grid):
        with pytest.raises(ValueError):
            grid.unflatten(200)


class TestCoverage:
    def test_full_cell_coverage(self, grid):
        cover = grid.coverage(Rect(0, 0, 2, 2))
        assert cover[0, 0] == pytest.approx(1.0)
        assert cover.sum() == pytest.approx(1.0)

    def test_half_cell_coverage(self, grid):
        cover = grid.coverage(Rect(0, 0, 1, 2))
        assert cover[0, 0] == pytest.approx(0.5)

    def test_coverage_conserves_area(self, grid):
        rect = Rect(3.3, 1.7, 7.9, 5.1)
        cover = grid.coverage(rect)
        assert cover.sum() * grid.cell_area == pytest.approx(rect.area, rel=1e-9)

    def test_coverage_clips_to_grid(self, grid):
        rect = Rect(38.0, 18.0, 10.0, 10.0)  # hangs off the top-right
        cover = grid.coverage(rect)
        assert cover.sum() * grid.cell_area == pytest.approx(4.0)

    def test_coverage_outside_is_zero(self, grid):
        cover = grid.coverage(Rect(100, 100, 5, 5))
        assert cover.sum() == 0.0

    def test_occupancy_is_boolean_support(self, grid):
        rect = Rect(0.5, 0.5, 3.0, 1.0)
        occ = grid.occupancy(rect)
        assert occ.dtype == bool
        assert occ.sum() == (grid.coverage(rect) > 0).sum()

    @given(
        x=st.floats(0, 30, allow_nan=False),
        y=st.floats(0, 12, allow_nan=False),
        w=st.floats(0.5, 9, allow_nan=False),
        h=st.floats(0.5, 7, allow_nan=False),
    )
    def test_interior_rect_area_conserved(self, x, y, w, h):
        grid = PlacementGrid(40.0, 20.0, 10, 20)
        rect = Rect(x, y, w, h)
        cover = grid.coverage(rect)
        assert cover.sum() * grid.cell_area == pytest.approx(rect.area, rel=1e-6)
        assert np.all(cover >= 0.0) and np.all(cover <= 1.0 + 1e-12)

    @given(
        row=st.integers(0, 9),
        col=st.integers(0, 19),
    )
    def test_cell_rect_covers_exactly_its_cell(self, row, col):
        grid = PlacementGrid(40.0, 20.0, 10, 20)
        ox, oy = grid.cell_origin(row, col)
        cover = grid.coverage(Rect(ox, oy, grid.dx, grid.dy))
        assert cover[row, col] == pytest.approx(1.0)
        assert cover.sum() == pytest.approx(1.0)
