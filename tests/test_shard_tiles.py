"""Tile decomposition geometry: even-parity cuts, deterministic
routing, window extraction and border/anchor enumeration.

The parity contract is the load-bearing one:
:meth:`~repro.terrain.mesh.TriangleMesh.from_dem` picks cell diagonals
by local ``(r + c) % 2``, so every window origin must have an even
index sum for the window mesh to be a true submesh of the monolithic
mesh — :func:`~repro.shard.tiles.tile_cuts` guarantees it by keeping
every cut index even.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TerrainError
from repro.shard import TileGrid, TileSpan, tile_cuts
from repro.terrain.synthetic import fractal_dem


@pytest.fixture(scope="module")
def dem():
    return fractal_dem(17, 90.0, 400.0, 0.6, seed=3)


@pytest.fixture(scope="module")
def grid(dem):
    return TileGrid(dem, (2, 2))


class TestTileCuts:
    def test_endpoints_and_monotonicity(self):
        for extent in (5, 9, 13, 17, 33, 257):
            for tiles in (1, 2, 3, 4, 8):
                cuts = tile_cuts(extent, tiles)
                assert cuts[0] == 0
                assert cuts[-1] == extent - 1
                assert list(cuts) == sorted(set(cuts))

    def test_interior_cuts_are_even(self):
        for extent in (9, 13, 17, 33, 257):
            for tiles in (2, 3, 4, 8):
                for cut in tile_cuts(extent, tiles)[1:-1]:
                    assert cut % 2 == 0

    def test_tile_count_clamped_to_extent(self):
        # A size-5 DEM supports at most 2 tiles per axis (each span
        # needs two grid intervals after parity rounding).
        assert len(tile_cuts(5, 8)) - 1 == 2
        assert len(tile_cuts(3, 4)) - 1 == 1
        assert len(tile_cuts(2, 2)) - 1 == 1

    def test_tiny_extent_rejected(self):
        with pytest.raises(TerrainError, match="extent"):
            tile_cuts(1, 2)

    def test_requested_count_honoured_when_possible(self):
        assert len(tile_cuts(257, 8)) - 1 == 8
        assert len(tile_cuts(17, 4)) - 1 == 4


class TestRouting:
    def test_every_grid_point_routes_inside_its_tile(self, dem, grid):
        cell = dem.cell_size
        ox, oy = dem.origin
        for r in range(0, dem.rows, 3):
            for c in range(0, dem.cols, 3):
                i, j = grid.home_tile(ox + c * cell, oy + r * cell)
                assert grid.row_cuts[i] <= r <= grid.row_cuts[i + 1]
                assert grid.col_cuts[j] <= c <= grid.col_cuts[j + 1]

    def test_border_points_route_deterministically(self, dem, grid):
        # A point on a shared cut line hits several tile rectangles;
        # the lowest (row, col) must win, every time.
        cell = dem.cell_size
        ox, oy = dem.origin
        cut_r = grid.row_cuts[1]
        cut_c = grid.col_cuts[1]
        corner = (ox + cut_c * cell, oy + cut_r * cell)
        homes = {grid.home_tile(*corner) for _ in range(10)}
        assert homes == {(0, 0)}

    def test_border_just_outside_routes_like_inside(self, dem, grid):
        # One ulp outside the terrain, a point on a shared cut line
        # belongs to the same (lower) tile as the cut's end on the
        # terrain edge.
        cell = dem.cell_size
        ox, oy = dem.origin
        cut_y = oy + grid.row_cuts[1] * cell
        cut_x = ox + grid.col_cuts[1] * cell
        west = float(np.nextafter(ox, -np.inf))
        south = float(np.nextafter(oy, -np.inf))
        assert grid.home_tile(west, cut_y) == grid.home_tile(ox, cut_y) == (0, 0)
        assert grid.home_tile(cut_x, south) == grid.home_tile(cut_x, oy) == (0, 0)

    def test_far_outside_point_clamps(self, dem, grid):
        assert grid.home_tile(-1e9, -1e9) == (0, 0)
        assert grid.home_tile(1e9, 1e9) == (
            grid.tiles_rows - 1,
            grid.tiles_cols - 1,
        )


class TestSpans:
    def test_inverted_span_rejected(self):
        with pytest.raises(TerrainError, match="inverted"):
            TileSpan(1, 0, 0, 0)

    def test_expand_is_clipped_and_idempotent_at_full(self, grid):
        full = grid.full_span()
        assert grid.expand(full) == full
        one = grid.tile_span((0, 0))
        assert grid.expand(one) == full  # 2x2 grid: one ring covers it

    def test_span_for_disk_covers_the_disk(self, dem, grid):
        cell = dem.cell_size
        ox, oy = dem.origin
        x, y = ox + 7 * cell, oy + 7 * cell
        radius = 3 * cell
        span = grid.span_for_disk(x, y, radius)
        r0, r1, c0, c1 = grid.span_window(span)
        assert ox + c0 * cell <= x - radius or c0 == 0
        assert ox + c1 * cell >= x + radius or c1 == dem.cols - 1
        assert oy + r0 * cell <= y - radius or r0 == 0
        assert oy + r1 * cell >= y + radius or r1 == dem.rows - 1

    def test_window_origins_have_even_parity(self, dem):
        for tiles in ((2, 2), (3, 3), (4, 2)):
            grid = TileGrid(dem, tiles)
            for span in grid.all_tile_spans():
                r0, _r1, c0, _c1 = grid.span_window(span)
                assert (r0 + c0) % 2 == 0


class TestWindows:
    def test_window_dem_slices_heights_and_shifts_origin(self, dem, grid):
        span = grid.tile_span((1, 0))
        r0, r1, c0, c1 = grid.span_window(span)
        sub = grid.window_dem(span)
        assert np.array_equal(
            sub.heights, dem.heights[r0 : r1 + 1, c0 : c1 + 1]
        )
        assert sub.origin == (
            dem.origin[0] + c0 * dem.cell_size,
            dem.origin[1] + r0 * dem.cell_size,
        )
        assert sub.cell_size == dem.cell_size

    def test_full_span_window_is_whole_dem(self, dem, grid):
        sub = grid.window_dem(grid.full_span())
        assert np.array_equal(sub.heights, dem.heights)
        assert sub.origin == dem.origin

    def test_border_xy_empty_for_full_span(self, grid):
        assert len(grid.window_border_xy(grid.full_span())) == 0

    def test_border_xy_lies_on_interior_cut_lines(self, dem, grid):
        span = grid.tile_span((0, 0))
        border = grid.window_border_xy(span)
        assert len(border) > 0
        cell = dem.cell_size
        ox, oy = dem.origin
        wall_x = ox + grid.col_cuts[1] * cell
        wall_y = oy + grid.row_cuts[1] * cell
        for x, y in border:
            assert x == pytest.approx(wall_x) or y == pytest.approx(wall_y)
        # Spacing along the border never exceeds one cell (the
        # detour bound's slack term assumes it).
        xs = sorted(x for x, y in border if y == pytest.approx(wall_y))
        assert max(np.diff(xs)) <= cell + 1e-9

    def test_shared_border_vertices_lie_in_both_windows(self, dem, grid):
        span = grid.tile_span((0, 0))
        for nb in grid.neighbours(span):
            shared = grid.shared_border_vertices(span, nb)
            assert shared
            r0, r1, c0, c1 = grid.span_window(span)
            n0, n1, m0, m1 = grid.span_window(grid.tile_span(nb))
            for r, c in shared:
                assert r0 <= r <= r1 and c0 <= c <= c1
                assert n0 <= r <= n1 and m0 <= c <= m1

    def test_neighbours_of_full_span_empty(self, grid):
        assert grid.neighbours(grid.full_span()) == []
