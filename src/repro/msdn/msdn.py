"""The MSDN facade: SDNs at several resolutions + lower-bound queries.

Responsibilities:

* build crossing lines for both x- and y-plane families at terrain
  construction time (the paper pre-creates MSDN and stores it in the
  database);
* keep chunked SDNs per resolution, with plane *density* reduced at
  low resolutions as the paper prescribes ("for a request of low
  resolution SDN data, we reduce the density of crossing lines
  selected too");
* choose the plane family per query by the dominant direction of the
  (a, b) xy projection (the paper's 45° heuristic: use the family
  that actually separates the two points);
* answer lower-bound queries restricted to a region of interest, with
  optional *dummy lower bound* corridors (§4.2.2) for the CPU
  optimisation benches;
* when storage is attached, charge page I/O for the chunks fetched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError
from repro.geometry.primitives import BoundingBox
from repro.msdn.crossing import (
    adaptive_plane_positions,
    crossing_line,
    plane_positions,
    supersample_polyline,
)
from repro.msdn.sdn import (
    SdnChunk,
    build_sdn_chunks,
    lower_bound_via_planes_arrays,
)
from repro.storage.locator import LocatorStore
from repro.storage.pages import PageManager
from repro.storage.stats import PAGE_CLASS_MSDN

DEFAULT_RESOLUTIONS = (0.25, 0.375, 0.5, 0.75, 1.0)


@dataclass
class LowerBoundResult:
    """Outcome of one MSDN lower-bound estimation."""

    value: float
    path_keys: list
    resolution: float
    chunks_used: int


def _roi_list(roi):
    if roi is None:
        return None
    if isinstance(roi, BoundingBox):
        roi = [roi]
    return [box.xy() if box.dim == 3 else box for box in roi]


def _box_mask(xy: np.ndarray, boxes) -> np.ndarray:
    """Vectorized intersects-any-box mask over an (m, 4) xy-MBR array
    laid out as [lo_x, lo_y, hi_x, hi_y]."""
    mask = np.zeros(xy.shape[0], dtype=bool)
    for box in boxes:
        mask |= (
            (xy[:, 0] <= box.hi[0])
            & (xy[:, 2] >= box.lo[0])
            & (xy[:, 1] <= box.hi[1])
            & (xy[:, 3] >= box.lo[1])
        )
    return mask


class MSDN:
    """Multiresolution support distance network over a terrain mesh.

    Parameters
    ----------
    mesh:
        The original terrain mesh.
    spacing:
        Plane interval at full density; defaults to the mesh's mean
        edge length (the paper's highest-density recommendation).
    resolutions:
        SDN resolutions to materialize (fractions of crossing-line
        points kept).
    """

    def __init__(
        self,
        mesh,
        spacing: float | None = None,
        resolutions=DEFAULT_RESOLUTIONS,
        supersample: int = 8,
        adaptive_planes: float = 0.0,
    ):
        self.mesh = mesh
        if spacing is None:
            spacing = float(np.mean(mesh.edge_lengths))
        if spacing <= 0:
            raise QueryError("plane spacing must be positive")
        if supersample < 1:
            raise QueryError("supersample must be >= 1")
        self.spacing = spacing
        self.supersample = supersample
        self.adaptive_planes = float(adaptive_planes)
        self.resolutions = tuple(sorted(resolutions))
        bounds = mesh.xy_bounds()
        # Crossing lines per axis; the base (100 %) sampling is the
        # supersampled crossing line (see crossing.supersample_polyline).
        self._planes: dict[int, np.ndarray] = {}
        self._lines: dict[int, list] = {}
        for axis in (0, 1):
            if self.adaptive_planes > 0.0:
                values = adaptive_plane_positions(
                    mesh, spacing, axis, strength=self.adaptive_planes
                )
            else:
                values = plane_positions(bounds, spacing, axis)
            lines = []
            kept_values = []
            for value in values:
                line = crossing_line(mesh, axis, float(value))
                if line is not None:
                    lines.append(supersample_polyline(line, supersample))
                    kept_values.append(float(value))
            self._planes[axis] = np.asarray(kept_values)
            self._lines[axis] = lines
        # Chunked SDNs: (axis, resolution) -> list per plane.  Each
        # family also keeps one xy-MBR array [lo_x, lo_y, hi_x, hi_y]
        # over all its chunks (plane by plane, so plane ``i`` owns
        # rows ``offsets[i]:offsets[i + 1]``) for vectorized ROI
        # filtering; the per-plane ``_chunk_xy`` arrays are views of it.
        self._chunks: dict[tuple[int, float], list[list[SdnChunk]]] = {}
        self._plane_offsets: dict[tuple[int, float], np.ndarray] = {}
        self._family_xy: dict[tuple[int, float], np.ndarray] = {}
        self._chunk_xy: dict[tuple[int, float], list[np.ndarray]] = {}
        for axis in (0, 1):
            for res in self.resolutions:
                key = (axis, res)
                per_plane = [
                    build_sdn_chunks(line, axis, idx, float(self._planes[axis][idx]), res)
                    for idx, line in enumerate(self._lines[axis])
                ]
                offsets = np.zeros(len(per_plane) + 1, dtype=np.int64)
                np.cumsum([len(chunks) for chunks in per_plane], out=offsets[1:])
                rows = [
                    (c.mbr.lo[0], c.mbr.lo[1], c.mbr.hi[0], c.mbr.hi[1])
                    for chunks in per_plane
                    for c in chunks
                ]
                xy = np.array(rows, dtype=float) if rows else np.empty((0, 4))
                self._chunks[key] = per_plane
                self._plane_offsets[key] = offsets
                self._family_xy[key] = xy
                self._chunk_xy[key] = [
                    xy[start:stop] for start, stop in zip(offsets[:-1], offsets[1:])
                ]
        self._store: LocatorStore | None = None
        # Lazy caches, built on first touch and only read afterwards
        # (concurrent first touches at worst build one twice; each is
        # published by one dict store): per-(axis, resolution) 3D
        # chunk-MBR arrays for the DP and page-id arrays for I/O
        # charging, both row-aligned with the family xy array, and the
        # per-resolution key → chunk index for corridor_from_path.
        # Hop matrices are not cached: whole-plane-pair matrices would
        # cost far more memory than recomputing each hop on the kept
        # chunks.
        self._family_boxes3d: dict[tuple[int, float], tuple] = {}
        self._family_pages: dict[tuple[int, float], np.ndarray] = {}
        self._corridor_index: dict[float, dict[tuple, SdnChunk]] = {}

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------

    def attach_storage(self, pages: PageManager) -> None:
        """Page out every chunk record (clustered by plane, then
        position along the plane) for I/O accounting."""
        items = []
        for (axis, res), per_plane in self._chunks.items():
            for chunks in per_plane:
                for chunk in chunks:
                    cluster = (axis, round(res * 1000), chunk.plane_index, chunk.first)
                    items.append((cluster, ("chunk",) + cluster, chunk.encode()))
        self._store = LocatorStore(items, pages, page_class=PAGE_CLASS_MSDN)
        self._family_pages.clear()

    def _chunk_pages(self, axis: int, resolution: float) -> np.ndarray:
        """The page id backing each chunk of a family, row-aligned
        with its xy array — resolves the record-id → page mapping
        once so the hot path charges I/O by page array instead of
        rebuilding record-id tuples per call."""
        key = (axis, resolution)
        cached = self._family_pages.get(key)
        if cached is None:
            store = self._store
            rk = round(resolution * 1000)
            cached = np.array(
                [
                    store.page_of(("chunk", c.axis, rk, c.plane_index, c.first))
                    for layer in self._chunks[key]
                    for c in layer
                ],
                dtype=np.int64,
            )
            self._family_pages[key] = cached
        return cached

    # ------------------------------------------------------------------
    # resolution policy
    # ------------------------------------------------------------------

    def plane_stride(self, resolution: float) -> int:
        """Plane-density reduction at low resolution (paper §3.3)."""
        return max(1, int(round(0.5 / resolution)))

    def nearest_resolution(self, resolution: float) -> float:
        return min(self.resolutions, key=lambda r: abs(r - resolution))

    # ------------------------------------------------------------------
    # lower bounds
    # ------------------------------------------------------------------

    @staticmethod
    def choose_axis(point_a, point_b) -> int:
        """Plane family that separates the pair: x-planes (axis 0)
        when the pair is spread mostly along x, else y-planes.

        (The paper's §3.3 heuristic compares the projection angle with
        45°; a plane family parallel to the motion would contribute no
        separating planes.)
        """
        dx = abs(float(point_b[0]) - float(point_a[0]))
        dy = abs(float(point_b[1]) - float(point_a[1]))
        return 0 if dx >= dy else 1

    def _planes_between(
        self, axis: int, lo: float, hi: float, stride: int
    ) -> np.ndarray:
        """Indices of the planes strictly between ``lo`` and ``hi``,
        thinned by ``stride``, in ascending order."""
        planes = self._planes[axis]
        inside = np.nonzero((planes > lo) & (planes < hi))[0]
        return inside[:: max(1, stride)]

    def touch_region(self, resolution: float, roi=None, axes=(0, 1)) -> None:
        """Charge page I/O for the chunks a lower-bound estimation
        over ``roi`` would fetch (integrated I/O regions call this
        once per merged region, then estimate with
        ``charge_io=False``).  The ROI mask is computed once per axis
        over the whole family; the planes of all axes are then the
        runs of one run read, which reads each plane's distinct pages
        in ascending order, plane by plane."""
        store = self._store
        if store is None:
            return
        resolution = self.nearest_resolution(resolution)
        roi = _roi_list(roi)
        runs: list[np.ndarray] = []
        bounds: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
        total = 0
        for axis in axes:
            key = (axis, resolution)
            pages = self._chunk_pages(axis, resolution)
            offsets = self._plane_offsets[key]
            if roi is not None:
                mask = _box_mask(self._family_xy[key], roi)
                pages = pages[mask]
                # Kept rows before each plane's first row.
                kept_before = np.zeros(mask.size + 1, dtype=np.int64)
                np.cumsum(mask, out=kept_before[1:])
                offsets = kept_before[offsets]
            runs.append(pages)
            bounds.append(offsets[1:] + total)
            total += pages.size
        if runs:
            store.touch_pages(np.concatenate(runs), np.concatenate(bounds))

    def lower_bound(
        self,
        point_a,
        point_b,
        resolution: float,
        roi=None,
        corridor=None,
        charge_io: bool = True,
    ) -> LowerBoundResult:
        """Estimate ``lb(a, b)`` at an SDN resolution.

        Parameters
        ----------
        point_a, point_b:
            3D surface points.
        resolution:
            One of the materialized SDN resolutions.
        roi:
            Optional region(s) restricting which chunks are used —
            safe because any path shorter than the current upper
            bound projects inside the ellipse region the caller
            supplies.
        corridor:
            Optional list of boxes forming a *dummy lower bound*
            envelope (§4.2.2): restrict chunks to the corridor; the
            result then *over*-estimates the true SDN lower bound and
            may only be used for the early-accept test.

        The result is always >= the Euclidean distance and always a
        valid lower bound of ``dS`` when ``corridor`` is None.
        """
        return self._lower_bound_at(
            np.asarray(point_a, dtype=float),
            np.asarray(point_b, dtype=float),
            self.nearest_resolution(resolution),
            _roi_list(roi),
            _roi_list(corridor),
            charge_io,
        )

    def lower_bound_batch(
        self,
        point_a,
        targets,
        resolution: float,
        rois=None,
        charge_io: bool = False,
    ) -> list[LowerBoundResult]:
        """Lower bounds from one source toward many targets in one
        call — the ranking loop's per-level batch.

        ``targets`` is a sequence of 3D points; ``rois`` (optional) a
        parallel sequence of per-target region arguments.  Each bound
        runs the exact computation of :meth:`lower_bound` (values are
        bit-identical); the batch only hoists the per-call setup —
        resolution snapping, source-point conversion, ROI
        normalization — out of the inner loop.
        """
        resolution = self.nearest_resolution(resolution)
        pa = np.asarray(point_a, dtype=float)
        if rois is None:
            rois = [None] * len(targets)
        return [
            self._lower_bound_at(
                pa,
                np.asarray(point_b, dtype=float),
                resolution,
                _roi_list(roi),
                None,
                charge_io,
            )
            for point_b, roi in zip(targets, rois)
        ]

    def _boxes3d(self, axis: int, resolution: float) -> tuple:
        """Cached 3D chunk-MBR ``(lo, hi)`` row arrays of a family,
        row-aligned with its xy array — the DP input, built once per
        (axis, resolution) instead of rebuilt from chunk objects on
        every estimation."""
        key = (axis, resolution)
        cached = self._family_boxes3d.get(key)
        if cached is None:
            chunks = [c for layer in self._chunks[key] for c in layer]
            cached = (
                np.array([c.mbr.lo for c in chunks], dtype=float).reshape(-1, 3),
                np.array([c.mbr.hi for c in chunks], dtype=float).reshape(-1, 3),
            )
            self._family_boxes3d[key] = cached
        return cached

    def _lower_bound_at(
        self, pa, pb, resolution: float, roi, corridor_boxes, charge_io: bool
    ) -> LowerBoundResult:
        """Shared implementation: arguments already normalized.

        Selects the family rows of the planes between the endpoints
        (ROI and corridor masks are computed once, over those planes'
        rows), charges the kept planes' pages as one run, plane by
        plane in plane order, and runs
        :func:`repro.msdn.sdn.lower_bound_via_planes_arrays`, which is
        bit-identical to the broadcast object-walk oracle
        :func:`repro.testkit.reference.lower_bound_via_planes`."""
        axis = self.choose_axis(pa, pb)
        lo = min(pa[axis], pb[axis])
        hi = max(pa[axis], pb[axis])
        if pa[axis] > pb[axis]:
            pa, pb = pb, pa
        key = (axis, resolution)
        planes = self._planes_between(axis, lo, hi, self.plane_stride(resolution))
        offsets = self._plane_offsets[key]
        starts = offsets[planes]
        stops = offsets[planes + 1]
        lo3, hi3 = self._boxes3d(axis, resolution)
        pages = (
            self._chunk_pages(axis, resolution)
            if charge_io and self._store is not None
            else None
        )
        rows = None  # kept family rows, when a region filters them
        if planes.size and (roi is not None or corridor_boxes is not None):
            first, last = int(starts[0]), int(stops[-1])
            xy = self._family_xy[key][first:last]
            mask = np.ones(last - first, dtype=bool)
            if roi is not None:
                mask &= _box_mask(xy, roi)
            if corridor_boxes is not None:
                mask &= _box_mask(xy, corridor_boxes)
            rows = np.flatnonzero(mask)
            rows += first
            # Each plane's kept rows, as a run of ``rows``.
            starts = np.searchsorted(rows, starts)
            stops = np.searchsorted(rows, stops)
            lo3, hi3 = lo3[rows], hi3[rows]
            if pages is not None:
                pages = pages[rows]
        kept: list = []  # (plane index, first row of its run)
        layer_boxes: list[tuple[np.ndarray, np.ndarray]] = []
        runs: list[np.ndarray] = []  # each kept plane's pages
        bounds = [0]  # run offsets: kept rows up to each kept plane
        for pi, start, stop in zip(planes.tolist(), starts.tolist(), stops.tolist()):
            # An empty (or fully filtered) plane is dropped, which
            # only loosens the bound.
            if stop == start:
                continue
            kept.append((pi, start))
            layer_boxes.append((lo3[start:stop], hi3[start:stop]))
            bounds.append(bounds[-1] + stop - start)
            if pages is not None:
                runs.append(pages[start:stop])
        if runs:
            self._store.touch_pages(np.concatenate(runs), bounds)
        value, picks = lower_bound_via_planes_arrays(pa, pb, layer_boxes)
        per_plane = self._chunks[key]
        path_keys = []
        for (pi, start), pick in zip(kept, picks):
            row = start + pick
            if rows is not None:
                row = int(rows[row])
            path_keys.append(per_plane[pi][row - int(offsets[pi])].key)
        return LowerBoundResult(
            value=value,
            path_keys=path_keys,
            resolution=resolution,
            chunks_used=bounds[-1],
        )

    def corridor_from_path(
        self, path_keys, resolution: float, thickness: float | None = None
    ) -> list[BoundingBox]:
        """Build the dummy-lower-bound envelope around a previous lb
        path: each path chunk's xy MBR thickened by ``thickness``
        (default: twice the plane spacing)."""
        if thickness is None:
            thickness = 2.0 * self.spacing
        resolution = self.nearest_resolution(resolution)
        # The key → chunk index is memoized per resolution: chunks are
        # immutable after construction and the ranking loop rebuilds a
        # corridor for every surviving candidate at every level.
        index = self._corridor_index.get(resolution)
        if index is None:
            index = {}
            for axis in (0, 1):
                for layer in self._chunks[(axis, resolution)]:
                    for chunk in layer:
                        index[chunk.key] = chunk
            self._corridor_index[resolution] = index
        boxes = []
        for key in path_keys:
            chunk = index.get(key)
            if chunk is not None:
                boxes.append(chunk.mbr.xy().expanded(thickness))
        return boxes

    def stats(self) -> dict:
        """Structure sizes (for DESIGN/EXPERIMENTS reporting)."""
        return {
            "spacing": self.spacing,
            "planes_x": int(len(self._planes[0])),
            "planes_y": int(len(self._planes[1])),
            "chunks": {
                f"axis{axis}@r{res}": sum(len(l) for l in per_plane)
                for (axis, res), per_plane in self._chunks.items()
            },
        }
