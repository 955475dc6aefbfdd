"""Tile decomposition of a DEM for sharded query processing.

A :class:`TileGrid` cuts a DEM into a small grid of overlapping tiles
(adjacent tiles share their border row/column of grid points) and
routes horizontal positions to their owning tile by bisecting the
tiles' edges.  Any rectangular *span* of tiles defines a window —
a contiguous sub-DEM — which is what :class:`~repro.shard.engine.ShardedEngine`
builds per-tile engines over.

Geometry contract (the reason every cut index is even):
:meth:`repro.terrain.mesh.TriangleMesh.from_dem` picks each cell's
diagonal by the parity of its *local* indices, ``(r + c) % 2``.  A
window whose origin ``(r0, c0)`` has ``r0 + c0`` even therefore
triangulates exactly like the corresponding region of the full mesh:
the window mesh is a true submesh, every window path exists on the
global surface, and the full-tile-span window is *byte-identical* to
the monolithic mesh.  Keeping all cut indices even makes every span
origin even.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import TerrainError
from repro.terrain.dem import DemGrid


def tile_cuts(extent: int, tiles: int) -> tuple[int, ...]:
    """Even cut indices splitting ``[0, extent - 1]`` into ``tiles``
    spans.

    ``tiles`` is clamped to what the extent supports (every span needs
    at least two grid intervals so each tile is a valid >= 3x3 window
    after the parity rounding).  The result always starts at 0 and
    ends at ``extent - 1``; interior entries are even and strictly
    increasing.
    """
    if extent < 2:
        raise TerrainError(f"cannot tile an extent of {extent} grid points")
    last = extent - 1
    tiles = max(1, min(int(tiles), last // 2))
    cuts = [0]
    for i in range(1, tiles):
        cut = int(round(last * i / tiles))
        cut -= cut % 2
        cut = max(cut, cuts[-1] + 2)
        cuts.append(cut)
    cuts.append(last)
    return tuple(cuts)


@dataclass(frozen=True, order=True)
class TileSpan:
    """A rectangular union of tiles: inclusive tile-index ranges."""

    t_r0: int
    t_r1: int
    t_c0: int
    t_c1: int

    def __post_init__(self):
        if self.t_r0 > self.t_r1 or self.t_c0 > self.t_c1:
            raise TerrainError(f"inverted tile span {self}")

    def contains(self, other: "TileSpan") -> bool:
        return (
            self.t_r0 <= other.t_r0
            and self.t_r1 >= other.t_r1
            and self.t_c0 <= other.t_c0
            and self.t_c1 >= other.t_c1
        )

    @property
    def tile_count(self) -> int:
        return (self.t_r1 - self.t_r0 + 1) * (self.t_c1 - self.t_c0 + 1)


class TileGrid:
    """The tile layout of one DEM."""

    def __init__(self, dem: DemGrid, tiles=(2, 2)):
        self.dem = dem
        if isinstance(tiles, int):
            tiles = (tiles, tiles)
        self.row_cuts = tile_cuts(dem.rows, tiles[0])
        self.col_cuts = tile_cuts(dem.cols, tiles[1])
        self.tiles_rows = len(self.row_cuts) - 1
        self.tiles_cols = len(self.col_cuts) - 1
        # The tiles' float edges, the coordinates their windows start
        # and end at.
        cell = dem.cell_size
        ox, oy = dem.origin
        self._row_edges = [oy + cut * cell for cut in self.row_cuts]
        self._col_edges = [ox + cut * cell for cut in self.col_cuts]

    # -- routing --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.tiles_rows, self.tiles_cols)

    def home_tile(self, x: float, y: float) -> tuple[int, int]:
        """The owning ``(tile_row, tile_col)`` of an xy position: per
        axis, the first tile whose far edge is not below it, clamped
        to the grid, so a position on a shared border belongs to the
        lower tile, inside the terrain or beyond it."""
        i = bisect_left(self._row_edges, float(y)) - 1
        j = bisect_left(self._col_edges, float(x)) - 1
        return (
            min(max(i, 0), self.tiles_rows - 1),
            min(max(j, 0), self.tiles_cols - 1),
        )

    def tile_span(self, tile: tuple[int, int]) -> TileSpan:
        return TileSpan(tile[0], tile[0], tile[1], tile[1])

    def full_span(self) -> TileSpan:
        return TileSpan(0, self.tiles_rows - 1, 0, self.tiles_cols - 1)

    def all_tile_spans(self) -> list[TileSpan]:
        return [
            self.tile_span((i, j))
            for i in range(self.tiles_rows)
            for j in range(self.tiles_cols)
        ]

    def expand(self, span: TileSpan) -> TileSpan:
        """One ring of neighbouring tiles, clipped to the grid."""
        return TileSpan(
            max(span.t_r0 - 1, 0),
            min(span.t_r1 + 1, self.tiles_rows - 1),
            max(span.t_c0 - 1, 0),
            min(span.t_c1 + 1, self.tiles_cols - 1),
        )

    def union(self, a: TileSpan, b: TileSpan) -> TileSpan:
        return TileSpan(
            min(a.t_r0, b.t_r0),
            max(a.t_r1, b.t_r1),
            min(a.t_c0, b.t_c0),
            max(a.t_c1, b.t_c1),
        )

    def span_for_disk(self, x: float, y: float, radius: float) -> TileSpan:
        """The smallest tile span whose window covers the xy disk
        ``(x, y, radius)`` (clipped to the terrain)."""
        cell = self.dem.cell_size
        r_lo = (float(y) - radius - self.dem.origin[1]) / cell
        r_hi = (float(y) + radius - self.dem.origin[1]) / cell
        c_lo = (float(x) - radius - self.dem.origin[0]) / cell
        c_hi = (float(x) + radius - self.dem.origin[0]) / cell
        i0 = max(min(bisect_right(self.row_cuts, r_lo) - 1, self.tiles_rows - 1), 0)
        i1 = max(min(bisect_right(self.row_cuts, r_hi) - 1, self.tiles_rows - 1), 0)
        j0 = max(min(bisect_right(self.col_cuts, c_lo) - 1, self.tiles_cols - 1), 0)
        j1 = max(min(bisect_right(self.col_cuts, c_hi) - 1, self.tiles_cols - 1), 0)
        return TileSpan(i0, i1, j0, j1)

    def neighbours(self, span: TileSpan) -> list[tuple[int, int]]:
        """Tiles sharing a border row/column with the span (the
        4-neighbourhood of the rectangle, no diagonals)."""
        out = []
        if span.t_r0 > 0:
            out += [(span.t_r0 - 1, j) for j in range(span.t_c0, span.t_c1 + 1)]
        if span.t_r1 < self.tiles_rows - 1:
            out += [(span.t_r1 + 1, j) for j in range(span.t_c0, span.t_c1 + 1)]
        if span.t_c0 > 0:
            out += [(i, span.t_c0 - 1) for i in range(span.t_r0, span.t_r1 + 1)]
        if span.t_c1 < self.tiles_cols - 1:
            out += [(i, span.t_c1 + 1) for i in range(span.t_r0, span.t_r1 + 1)]
        return out

    # -- window geometry ------------------------------------------------

    def span_window(self, span: TileSpan) -> tuple[int, int, int, int]:
        """Inclusive DEM index window ``(r0, r1, c0, c1)`` of a span."""
        return (
            self.row_cuts[span.t_r0],
            self.row_cuts[span.t_r1 + 1],
            self.col_cuts[span.t_c0],
            self.col_cuts[span.t_c1 + 1],
        )

    def window_dem(self, span: TileSpan) -> DemGrid:
        """The sub-DEM of a span (shares the parent height array)."""
        r0, r1, c0, c1 = self.span_window(span)
        cell = self.dem.cell_size
        return DemGrid(
            self.dem.heights[r0 : r1 + 1, c0 : c1 + 1],
            cell,
            (
                self.dem.origin[0] + c0 * cell,
                self.dem.origin[1] + r0 * cell,
            ),
        )

    def window_border_xy(self, span: TileSpan) -> np.ndarray:
        """xy coordinates of the grid points along the window's
        *interior* border — the sides not on the global DEM boundary.

        Any surface path that leaves the window crosses the vertical
        wall over one of these sides; the returned samples are spaced
        one ``cell_size`` apart along it, which is the slack term in
        :func:`repro.shard.stitch.detour_lower_bounds`.  Empty for the
        full span.
        """
        r0, r1, c0, c1 = self.span_window(span)
        cell = self.dem.cell_size
        ox, oy = self.dem.origin
        rows = np.arange(r0, r1 + 1)
        cols = np.arange(c0, c1 + 1)
        pts = []
        if r0 > 0:
            pts.append(np.stack([ox + cols * cell, np.full(len(cols), oy + r0 * cell)], axis=1))
        if r1 < self.dem.rows - 1:
            pts.append(np.stack([ox + cols * cell, np.full(len(cols), oy + r1 * cell)], axis=1))
        if c0 > 0:
            pts.append(np.stack([np.full(len(rows), ox + c0 * cell), oy + rows * cell], axis=1))
        if c1 < self.dem.cols - 1:
            pts.append(np.stack([np.full(len(rows), ox + c1 * cell), oy + rows * cell], axis=1))
        if not pts:
            return np.empty((0, 2), dtype=float)
        return np.concatenate(pts, axis=0)

    def shared_border_vertices(
        self, span: TileSpan, neighbour: tuple[int, int]
    ) -> list[tuple[int, int]]:
        """Global ``(row, col)`` grid indices shared by a span's
        window and a neighbouring tile's window — the boundary-anchor
        set for cross-tile stitching."""
        r0, r1, c0, c1 = self.span_window(span)
        n0, n1, m0, m1 = self.span_window(self.tile_span(neighbour))
        rr0, rr1 = max(r0, n0), min(r1, n1)
        cc0, cc1 = max(c0, m0), min(c1, m1)
        if rr0 > rr1 or cc0 > cc1:
            return []
        return [
            (r, c) for r in range(rr0, rr1 + 1) for c in range(cc0, cc1 + 1)
        ]
