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
  optional *dummy lower bound* corridors (§4.2.2), and decide the
  dummy-lb skip test itself (:meth:`MSDN.corridor_interval`, read as
  a yes/no by :meth:`MSDN.corridor_reaches`), mostly without masking a
  row or running the DP;
* when storage is attached, charge page I/O for the chunks fetched.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError, QueryError
from repro.geometry.primitives import (
    BoundingBox,
    box_corners,
    corner_boxes,
    region_boxes,
    rows_meeting_boxes,
)
from repro.msdn.crossing import (
    adaptive_plane_positions,
    crossing_line,
    plane_positions,
    supersample_polyline,
)
from repro.msdn.sdn import (
    CHUNK_RECORD_BYTES,
    SdnFamily,
    build_sdn_families,
    chain_length,
    lower_bound_via_planes_arrays,
    nearest_row,
)
from repro.obs.context import active_registry
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


def crossing_lines(
    mesh, spacing: float, axis: int, supersample: int, adaptive_planes: float
) -> tuple[np.ndarray, list]:
    """The sweep planes of one axis that cut the terrain and their
    supersampled crossing lines (see
    :func:`repro.msdn.crossing.supersample_polyline`), the MSDN's base
    (100 %) sampling."""
    if adaptive_planes > 0.0:
        values = adaptive_plane_positions(mesh, spacing, axis, strength=adaptive_planes)
    else:
        values = plane_positions(mesh.xy_bounds(), spacing, axis)
    lines = []
    kept_values = []
    for value in values:
        line = crossing_line(mesh, axis, float(value))
        if line is not None:
            lines.append(supersample_polyline(line, supersample))
            kept_values.append(float(value))
    return np.asarray(kept_values), lines


def corridor_region(corridor) -> "list[BoundingBox] | np.ndarray | None":
    """A corridor argument: its ``(m, 4)`` corner array
    (:meth:`MSDN.corridor_corners`) as it is, which the corridor masks
    (:func:`~repro.geometry.primitives.rows_meeting_boxes`) take as
    they take boxes; anything else as :func:`region_boxes` makes it."""
    if isinstance(corridor, np.ndarray):
        return corridor
    return region_boxes(corridor)


def _all_meet(rows: list, region) -> bool:
    """Whether every one of ``rows`` (xy MBRs laid out ``[lo_x, lo_y,
    hi_x, hi_y]``) meets ``region`` (None: no restriction): exactly
    ``rows_meeting_boxes(rows, region).all()``, its closed-interval
    comparisons made in Python on the few rows of a witness chain."""
    if region is None:
        return True
    corners = box_corners(region).tolist()
    for lo_x, lo_y, hi_x, hi_y in rows:
        for box_lo_x, box_lo_y, box_hi_x, box_hi_y in corners:
            if (
                lo_x <= box_hi_x
                and hi_x >= box_lo_x
                and lo_y <= box_hi_y
                and hi_y >= box_lo_y
            ):
                break
        else:
            return False
    return True


def _chain_price(family: SdnFamily, rows: list[int], ends, euclid: float) -> float:
    """:func:`~repro.msdn.sdn.chain_length` of the chain through
    ``family``'s ``rows`` between ``ends``, the endpoints as lists."""
    lo = family.lo.take(rows, 0).tolist()
    hi = family.hi.take(rows, 0).tolist()
    return chain_length(*ends, lo, hi, euclid)


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
        points kept): a non-empty collection of values in (0, 1],
        distinct at the 0.001 granularity of the page records; equal
        values count once.
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
        resolutions = tuple(sorted(set(resolutions)))
        if not resolutions:
            raise QueryError("resolutions must not be empty")
        if not all(0.0 < res <= 1.0 for res in resolutions):
            raise QueryError(f"resolutions must lie in (0, 1], got {resolutions}")
        if len({round(res * 1000) for res in resolutions}) != len(resolutions):
            raise QueryError(
                f"resolutions must differ by at least 0.001, got {resolutions}"
            )
        self.spacing = spacing
        self.supersample = supersample
        self.adaptive_planes = float(adaptive_planes)
        self.resolutions = resolutions
        # Crossing lines per axis, and the chunked SDN of every
        # (axis, resolution) family as row arrays (see SdnFamily),
        # built in page-record order: axis, resolution, plane, first.
        self._planes: dict[int, np.ndarray] = {}
        self._plane_values: dict[int, list[float]] = {}
        self._lines: dict[int, list] = {}
        self._families: dict[tuple[int, float], SdnFamily] = {}
        for axis in (0, 1):
            self._planes[axis], self._lines[axis] = crossing_lines(
                mesh, spacing, axis, supersample, self.adaptive_planes
            )
            self._plane_values[axis] = self._planes[axis].tolist()
            families = build_sdn_families(self._lines[axis], resolutions)
            for res, family in zip(resolutions, families):
                self._families[(axis, res)] = family
        self._store: LocatorStore | None = None
        self._pages: PageManager | None = None

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------

    def attach_storage(self, pages: PageManager) -> None:
        """Page out every chunk record (clustered by plane, then
        position along the plane) for I/O accounting.

        The families hold their rows in cluster-key order (axis,
        resolution, plane, first segment), so the records, each
        :data:`~repro.msdn.sdn.CHUNK_RECORD_BYTES` long, are laid out
        as one store in row order, and each family's rows are cut
        here, once, into the (plane, page) segments that accesses
        charge, and each plane's extent along its axis is taken
        (:meth:`~repro.msdn.sdn.SdnFamily.attach_pages`)."""
        store = LocatorStore.from_records(
            sum(map(len, self._families.values())),
            CHUNK_RECORD_BYTES,
            pages,
            page_class=PAGE_CLASS_MSDN,
        )
        start = 0
        for (axis, _res), family in self._families.items():
            family.attach_pages(store.row_pages[start : start + len(family)], axis)
            start += len(family)
        self._store = store
        self._pages = pages

    # ------------------------------------------------------------------
    # resolution policy
    # ------------------------------------------------------------------

    def plane_stride(self, resolution: float) -> int:
        """Plane-density reduction at low resolution (paper §3.3)."""
        return max(1, int(round(0.5 / resolution)))

    def nearest_resolution(self, resolution: float) -> float:
        for res in self.resolutions:
            if res == resolution:
                return res
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
        thinned by ``stride``, in ascending order.  Plane values
        ascend, so the planes are a bisection away (none when a bound
        is NaN)."""
        values = self._plane_values[axis]
        first = bisect_right(values, lo)
        return np.arange(first, max(first, bisect_left(values, hi)), max(1, stride))

    def touch_region(self, resolution: float, roi=None, axes=(0, 1)) -> None:
        """Charge page I/O for the chunks a lower-bound estimation
        over ``roi`` would fetch (integrated I/O regions call this
        once per merged region, then estimate with
        ``charge_io=False``): each plane's distinct pages holding a
        chunk inside ``roi``, in ascending order, plane by plane and
        axis by axis, as one run read.  Per axis, only the planes
        whose extent meets the ROI's joint extent along that axis can
        hold such a chunk (:meth:`~repro.msdn.sdn.SdnFamily.planes_meeting`);
        their rows are masked once and reduced to their (plane, page)
        segments, so the pages come out deduplicated and in order
        without sorting."""
        if self._pages is None:
            return
        resolution = self.nearest_resolution(resolution)
        roi = region_boxes(roi)
        if roi is not None and not roi:
            return
        needed: list[int] = []
        for axis in axes:
            family = self._families[(axis, resolution)]
            if roi is None:
                needed += family.segment_pages(0, len(family.offsets) - 1)
                continue
            # The joint extent as rows_meeting_boxes takes it: fmin /
            # fmax skip a NaN corner, which meets no row anyway.
            p0, p1 = family.planes_meeting(
                np.fmin.reduce([box.lo[axis] for box in roi]),
                np.fmax.reduce([box.hi[axis] for box in roi]),
            )
            if p0 < p1:
                xy = family.xy[family.offsets[p0] : family.offsets[p1]]
                needed += family.segment_pages(p0, p1, rows_meeting_boxes(xy, roi))
        if needed:
            self._pages.read_pages(needed)

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
            Optional list of boxes, or their ``(m, 4)`` corner array
            (:meth:`corridor_corners`), forming a *dummy lower bound*
            envelope (§4.2.2): restrict chunks to the corridor; the
            result then *over*-estimates the true SDN lower bound and
            may only be used for the skip test, which
            :meth:`corridor_interval` decides against a threshold.

        The result is always >= the Euclidean distance and always a
        valid lower bound of ``dS`` when ``corridor`` is None.
        """
        return self._lower_bound_at(
            np.asarray(point_a, dtype=float),
            np.asarray(point_b, dtype=float),
            self.nearest_resolution(resolution),
            region_boxes(roi),
            corridor_region(corridor),
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
        elif len(rois) != len(targets):
            raise QueryError(
                f"rois has {len(rois)} entries for {len(targets)} targets"
            )
        return [
            self._lower_bound_at(
                pa,
                np.asarray(point_b, dtype=float),
                resolution,
                region_boxes(roi),
                None,
                charge_io,
            )
            for point_b, roi in zip(targets, rois)
        ]

    def corridor_reaches(
        self,
        point_a,
        point_b,
        resolution: float,
        threshold: float,
        roi=None,
        corridor=None,
    ) -> bool:
        """The dummy-lower-bound screen (§4.2.2): exactly
        ``lower_bound(point_a, point_b, resolution, roi=roi,
        corridor=corridor, charge_io=False).value >= threshold``,
        read off the low end of :meth:`corridor_interval`."""
        lo, _hi = self.corridor_interval(
            point_a, point_b, resolution, threshold, roi, corridor
        )
        return lo >= threshold

    def corridor_interval(
        self,
        point_a,
        point_b,
        resolution: float,
        threshold: float,
        roi=None,
        corridor=None,
    ) -> tuple[float, float]:
        """What the dummy-lower-bound screen (§4.2.2) learns about the
        corridor bound ``V = lower_bound(point_a, point_b, resolution,
        roi=roi, corridor=corridor, charge_io=False).value``: an
        interval ``(lo, hi)`` holding ``V`` that decides ``threshold``
        (``lo >= threshold`` exactly when ``V >= threshold``, else
        ``hi < threshold``).  ``corridor`` may also be given as its
        ``(m, 4)`` corner array (:meth:`corridor_corners`).

        It decides without masks or the min-plus DP where it can, in
        this order:

        1. ``(euclid, inf)`` when the straight line alone reaches
           ``threshold`` (the bound is clamped below by it).
        2. The crossing chain: each selected plane's crossing row,
           picked among all of its rows
           (:meth:`~repro.msdn.sdn.SdnFamily.crossing_rows`).  When
           every one meets ``roi`` and the corridor, every plane keeps
           a row, so the DP's layers are exactly these planes and the
           chain is one of its chains, and a
           :func:`~repro.msdn.sdn.chain_length` below ``threshold``
           gives ``(euclid, chain)`` (the DP's bound never exceeds a
           chain's length).
        3. Only otherwise, when the crossing chain left ``roi`` or the
           corridor or was too long, are the rows masked
           (``msdn.screen_masked``): ``(euclid, euclid)`` when no
           layer survives.
        4. The spine chain (:meth:`_spine_rows`), when there is a
           corridor: on each kept plane the kept row nearest the
           corridor's spine, again one of the DP's chains, so one
           priced below ``threshold`` gives ``(euclid, chain)``
           (``msdn.screen_spine``).
        5. Else the DP runs (``msdn.screen_dp_fallbacks``) and gives
           ``(V, V)``.

        Chains are priced in Python floats, and the witness masks are
        :func:`~repro.geometry.primitives.rows_meeting_boxes`'
        closed-interval comparisons on the picked rows, in Python.  No
        pages are charged and no path keys are built.  Which interval
        comes back depends on ``threshold``, but each one holds ``V``,
        so a caller may keep it and decide other thresholds from it.
        """
        pa = np.asarray(point_a, dtype=float)
        pb = np.asarray(point_b, dtype=float)
        euclid = float(np.linalg.norm(pa - pb))
        if euclid >= threshold:
            return euclid, math.inf
        resolution = self.nearest_resolution(resolution)
        roi = region_boxes(roi)
        corridor = corridor_region(corridor)
        axis, pa, pb, family, planes = self._selection(pa, pb, resolution)
        ends = pa.tolist(), pb.tolist()
        rows = family.crossing_rows(planes, axis, pa, pb)
        xy = family.xy.take(rows, 0).tolist()
        if _all_meet(xy, roi) and _all_meet(xy, corridor):
            chain = _chain_price(family, rows, ends, euclid)
            if chain < threshold:
                return euclid, chain
        registry = active_registry()
        registry.counter("msdn.screen_masked").add(1)
        layer_boxes, kept, runs = self._masked_layers(family, planes, roi, corridor)
        if not layer_boxes:
            # The bound is the straight line, already below threshold.
            return euclid, euclid
        if corridor is not None:
            rows = self._spine_rows(family, axis, corridor, kept, runs)
            chain = _chain_price(family, rows, ends, euclid)
            if chain < threshold:
                registry.counter("msdn.screen_spine").add(1)
                return euclid, chain
        registry.counter("msdn.screen_dp_fallbacks").add(1)
        value, _picks = lower_bound_via_planes_arrays(pa, pb, layer_boxes)
        return value, value

    @staticmethod
    def _spine_rows(family: SdnFamily, axis: int, corridor, kept, runs) -> list[int]:
        """The spine chain's family row on each kept plane: the kept
        row nearest (:func:`~repro.msdn.sdn.nearest_row`), along the
        other horizontal axis, to the corridor's spine where it meets
        the plane.  The spine is the polyline through the corridor
        boxes' centres in order along ``axis`` (for a corridor built
        from a lower-bound path, that path), held level beyond its
        ends, and it meets a plane at the plane's first kept row's
        coordinate on ``axis``.  ``kept`` and ``runs`` are
        :meth:`_masked_layers`' rows and runs under a corridor."""
        other = 1 - axis
        spine = sorted(
            ((c[axis] + c[axis + 2]) * 0.5, (c[other] + c[other + 2]) * 0.5)
            for c in box_corners(corridor).tolist()
        )
        along = [x for x, _o in spine]
        xy = family.xy[kept]
        at_axis = xy[:, axis].tolist()
        lo, hi = xy[:, other].tolist(), xy[:, other + 2].tolist()
        rows = []
        for start, stop in runs:
            x = at_axis[start]
            i = bisect_left(along, x)
            if i == 0:
                at = spine[0][1]
            elif i == len(spine):
                at = spine[-1][1]
            else:
                (x0, o0), (x1, o1) = spine[i - 1], spine[i]
                at = o0 + (x - x0) / (x1 - x0) * (o1 - o0)
            rows.append(int(kept[nearest_row(lo, hi, start, stop, at)]))
        return rows

    def _selection(self, pa, pb, resolution: float) -> tuple:
        """The planes a bound between ``pa`` and ``pb`` crosses:
        ``(axis, pa, pb, family, planes)``, the endpoints ordered
        along the plane axis and the planes strictly between them,
        thinned by :meth:`plane_stride`, in ascending order."""
        axis = self.choose_axis(pa, pb)
        if pa[axis] > pb[axis]:
            pa, pb = pb, pa
        family = self._families[(axis, resolution)]
        planes = self._planes_between(
            axis, float(pa[axis]), float(pb[axis]), self.plane_stride(resolution)
        )
        return axis, pa, pb, family, planes

    @staticmethod
    def _masked_layers(family: SdnFamily, planes, roi, corridor_boxes) -> tuple:
        """The rows of ``planes`` kept where they meet ``roi`` and
        ``corridor_boxes`` (both masks computed once, over those
        planes' rows), empty planes dropped — which only loosens the
        bound.

        Returns ``(layer_boxes, rows, runs)``: each kept plane's
        ``(lo, hi)`` boxes in plane order, and where they sit in the
        family: kept plane ``i`` is rows ``runs[i][0]:runs[i][1]`` of
        the family, or of ``rows`` (family row indices) when a region
        filtered them."""
        starts = family.offsets[planes]
        stops = family.offsets[planes + 1]
        lo3, hi3 = family.lo, family.hi
        rows = None
        if planes.size and (roi is not None or corridor_boxes is not None):
            first, last = int(starts[0]), int(stops[-1])
            xy = family.xy[first:last]
            mask = np.ones(last - first, dtype=bool)
            if roi is not None:
                mask &= rows_meeting_boxes(xy, roi)
            if corridor_boxes is not None:
                mask &= rows_meeting_boxes(xy, corridor_boxes)
            rows = np.flatnonzero(mask)
            rows += first
            # Each plane's kept rows, as a run of ``rows``.
            starts = np.searchsorted(rows, starts)
            stops = np.searchsorted(rows, stops)
            lo3, hi3 = lo3[rows], hi3[rows]
        runs = [
            (start, stop)
            for start, stop in zip(starts.tolist(), stops.tolist())
            if stop > start
        ]
        layer_boxes = [(lo3[start:stop], hi3[start:stop]) for start, stop in runs]
        return layer_boxes, rows, runs

    def _lower_bound_at(
        self, pa, pb, resolution: float, roi, corridor_boxes, charge_io: bool
    ) -> LowerBoundResult:
        """Shared implementation: arguments already normalized.

        Selects the layers (:meth:`_selection`, :meth:`_masked_layers`),
        charges the segments of the kept planes' kept rows as one run,
        plane by plane in plane order (rows of the planes
        ``plane_stride`` skips are not charged), and runs
        :func:`repro.msdn.sdn.lower_bound_via_planes_arrays`, which is
        bit-identical to the broadcast object-walk oracle
        :func:`repro.testkit.reference.lower_bound_via_planes`."""
        axis, pa, pb, family, planes = self._selection(pa, pb, resolution)
        layer_boxes, rows, runs = self._masked_layers(
            family, planes, roi, corridor_boxes
        )
        if charge_io and runs and self._pages is not None:
            # The kept rows, marked within the planes from the first
            # kept row's to the last's.
            kept = np.concatenate(
                [
                    np.arange(start, stop) if rows is None else rows[start:stop]
                    for start, stop in runs
                ]
            )
            p0, p1 = int(family.plane[kept[0]]), int(family.plane[kept[-1]]) + 1
            base = family.offsets[p0]
            mask = np.zeros(family.offsets[p1] - base, dtype=bool)
            mask[kept - base] = True
            self._pages.read_pages(family.segment_pages(p0, p1, mask))
        value, picks = lower_bound_via_planes_arrays(pa, pb, layer_boxes)
        path_keys = []
        for (start, _stop), pick in zip(runs, picks):
            row = start + pick
            if rows is not None:
                row = int(rows[row])
            path_keys.append(family.key(axis, row))
        return LowerBoundResult(
            value=value,
            path_keys=path_keys,
            resolution=resolution,
            chunks_used=sum(stop - start for start, stop in runs),
        )

    def corridor_from_path(
        self, path_keys, resolution: float, thickness: float | None = None
    ) -> list[BoundingBox]:
        """Build the dummy-lower-bound envelope around a previous lb
        path: each path chunk's xy MBR thickened by ``thickness``
        (default: twice the plane spacing), in path order.  Keys that
        name no chunk of this resolution are skipped.  The boxes of
        :meth:`corridor_corners`."""
        return corner_boxes(self.corridor_corners(path_keys, resolution, thickness))

    def corridor_corners(
        self, path_keys, resolution: float, thickness: float | None = None
    ) -> np.ndarray:
        """:meth:`corridor_from_path` as an ``(m, 4)`` corner array
        laid out ``[lo_x, lo_y, hi_x, hi_y]``, which the screen and
        the DP masks take as they are; the ranking loop keeps one per
        lower-bound path.

        Each key resolves to its family row with one integer search
        over the family's (plane, first) pairs
        (:meth:`~repro.msdn.sdn.SdnFamily.row_of`), so no per-key index
        is built or kept."""
        if thickness is None:
            thickness = 2.0 * self.spacing
        if thickness < 0:
            raise GeometryError("margin must be non-negative")
        resolution = self.nearest_resolution(resolution)
        corners = np.empty((len(path_keys), 4))
        count = 0
        for key in path_keys:
            family = self._families.get((key[1], resolution))
            row = None if family is None else family.row_of(*key[2:])
            if row is not None:
                corners[count] = family.xy[row]
                count += 1
        corners = corners[:count]
        corners[:, :2] -= thickness
        corners[:, 2:] += thickness
        return corners

    def stats(self) -> dict:
        """Structure sizes (for DESIGN/EXPERIMENTS reporting)."""
        return {
            "spacing": self.spacing,
            "planes_x": int(len(self._planes[0])),
            "planes_y": int(len(self._planes[1])),
            "chunks": {
                f"axis{axis}@r{res}": len(family)
                for (axis, res), family in self._families.items()
            },
        }
