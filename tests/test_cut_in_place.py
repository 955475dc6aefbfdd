"""In-place cut searches pinned against the per-region reference.

A cut-level network is the step's compiled cut plus a mask of the
rows the region keeps, and its searches run on the compiled cut in
place.  The reference builds a keyed graph per region by one
``add_edge`` per recorded edge among the nodes a walk over the
collapse nodes selects (:func:`~repro.testkit.reference.dmtm_cut_reference`)
and searches it on the dict kernels
(:func:`~repro.testkit.reference.dijkstra_with_parents_reference`).
Both must agree on value bytes, path keys and unreachable results,
report the same settled and relaxation counts, and read the same
pages in the same order.

Regions are drawn to hit the mask's edge cases: empty lists, point
boxes on vertices (leaf MBRs are points, so a point box meets a leaf
only through a closed comparison), duplicated boxes, boxes off the
terrain and single boxes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geodesic.frontier import MIN_FRONTIER_NODES
from repro.geometry.primitives import (
    BoundingBox,
    box_corners,
    rows_meeting_boxes,
)
from repro.obs.context import ObsContext
from repro.testkit.differential import CUT_RESOLUTIONS
from repro.testkit.generators import standard_engine
from repro.testkit.reference import (
    dmtm_cut_nodes_reference,
    dmtm_cut_per_region,
    dmtm_cut_reference,
    dmtm_faces_reference,
    dmtm_touch_nodes_reference,
    dmtm_upper_bound_cut_reference,
    dmtm_upper_bounds_from_cut_reference,
    rows_meeting_boxes_reference,
    upper_bound_bits,
)

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_COUNTERS = ("geodesic.dijkstra.settled", "geodesic.dijkstra.relaxations")


def _engine(name: str):
    return standard_engine(name, 17, density=10.0, seed=3)


def _read_log(engine, call) -> list[int]:
    """Every page id ``call()`` reads, in order."""
    log: list[int] = []
    pages = engine.pages
    read_pages = pages.read_pages

    def logged(page_ids):
        log.extend(page_ids)
        return read_pages(page_ids)

    pages.read_pages = logged
    try:
        call()
    finally:
        del pages.read_pages
    return log


def _counted(call):
    """``call()``'s result and its search counter deltas."""
    ctx = ObsContext("cut-in-place")
    with ctx.activate():
        out = call()
    return out, tuple(ctx.registry.counter(name).value for name in _COUNTERS)


@st.composite
def _regions(draw, mesh):
    """None, or a list of boxes placed against the terrain's vertices."""
    kind = draw(st.sampled_from(
        ["none", "empty", "single", "points", "duplicated", "off", "mixed"]
    ))
    if kind == "none":
        return None
    if kind == "empty":
        return []
    xy = mesh.vertices[:, :2]
    bounds = mesh.xy_bounds()
    span = float(bounds.extents.max())

    def vertex():
        return xy[draw(st.integers(0, len(xy) - 1))]

    def box():
        # Corners on vertex coordinates, so MBR edges are met exactly.
        a, b = vertex(), vertex()
        return BoundingBox(tuple(np.minimum(a, b)), tuple(np.maximum(a, b)))

    def point():
        p = tuple(vertex())
        return BoundingBox(p, p)

    def off():
        lo = np.asarray(bounds.hi) + draw(st.floats(0.0, 1.0)) * span
        return BoundingBox(tuple(lo), tuple(lo + draw(st.floats(0.0, 0.5)) * span))

    if kind == "single":
        return [box()]
    if kind == "points":
        return [point() for _ in range(draw(st.integers(1, 6)))]
    if kind == "duplicated":
        b = box()
        return [b] * draw(st.integers(2, 4))
    if kind == "off":
        return [off() for _ in range(draw(st.integers(1, 3)))]
    makers = [box, point, off]
    return [
        makers[draw(st.integers(0, 2))]()
        for _ in range(draw(st.integers(2, 8)))
    ]


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(["BH", "EP", "flat"]))
    engine = _engine(name)
    mesh = engine.mesh
    resolution = draw(st.sampled_from(CUT_RESOLUTIONS))
    region = draw(_regions(mesh))
    n = mesh.num_vertices
    source = draw(st.integers(0, n - 1))
    targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    return engine, resolution, region, source, targets


class TestInPlaceCut:
    @_SETTINGS
    @given(case=_cases())
    def test_matches_per_region_reference(self, case):
        engine, resolution, region, source, targets = case
        dmtm = engine.dmtm
        step = dmtm.ddm.step_for_fraction(resolution)

        # Page runs: touch_region, and extraction with charging on.
        got_pages = _read_log(engine, lambda: dmtm.touch_region(resolution, region))
        want_pages = _read_log(
            engine,
            lambda: dmtm_touch_nodes_reference(
                dmtm, dmtm_cut_nodes_reference(dmtm.ddm, step, region)
            ),
        )
        assert got_pages == want_pages
        views = {}
        got_pages = _read_log(
            engine,
            lambda: views.setdefault("got", dmtm.extract_network(resolution, region)),
        )
        want_pages = _read_log(
            engine,
            lambda: views.setdefault(
                "want", dmtm_cut_reference(dmtm, resolution, region)
            ),
        )
        assert got_pages == want_pages
        got, want = views["got"], views["want"]
        assert (got.step, got.records_used) == (want.step, want.records_used)

        # Single-pair bounds toward every target.
        for target in targets:
            got_ub, got_counts = _counted(
                lambda: dmtm.upper_bound(source, target, resolution, network=got)
            )
            want_ub, want_counts = _counted(
                lambda: dmtm_upper_bound_cut_reference(dmtm, source, target, want)
            )
            assert upper_bound_bits(got_ub) == upper_bound_bits(want_ub)
            assert got_counts == want_counts

        # One search toward all targets.
        got_all, got_counts = _counted(
            lambda: dmtm.upper_bounds_from(source, targets, got)
        )
        want_all, want_counts = _counted(
            lambda: dmtm_upper_bounds_from_cut_reference(dmtm, source, targets, want)
        )
        assert list(got_all) == list(want_all)
        assert [upper_bound_bits(got_all[t]) for t in got_all] == [
            upper_bound_bits(want_all[t]) for t in want_all
        ]
        assert got_counts == want_counts

    def test_unreachable_and_outside_region_are_none(self):
        dmtm = _engine("BH").dmtm
        mesh = dmtm.mesh
        a, b = 0, mesh.num_vertices - 1
        point = BoundingBox(tuple(mesh.vertices[a, :2]), tuple(mesh.vertices[a, :2]))
        for resolution in CUT_RESOLUTIONS:
            for region in ([], [point]):
                got = dmtm.extract_network(resolution, region, charge_io=False)
                want = dmtm_cut_reference(dmtm, resolution, region, charge_io=False)
                got_ub = dmtm.upper_bound(a, b, resolution, network=got)
                want_ub = dmtm_upper_bound_cut_reference(dmtm, a, b, want)
                assert upper_bound_bits(got_ub) == upper_bound_bits(want_ub)
                if not region:
                    assert got_ub is None
                    assert dmtm.upper_bounds_from(a, [b], got) == {b: None}
        # At full resolution the point box keeps only a's own leaf.
        assert dmtm.upper_bound(a, b, 1.0, network=got) is None
        assert dmtm.upper_bounds_from(a, [a, b], got)[b] is None

    def test_compiled_cut_is_shared_per_step(self):
        dmtm = _engine("EP").dmtm
        box = dmtm.mesh.xy_bounds()
        for resolution in CUT_RESOLUTIONS:
            whole = dmtm.extract_network(resolution, charge_io=False)
            part = dmtm.extract_network(resolution, box, charge_io=False)
            assert whole.cut is part.cut
            assert whole.region is None and part.region.all()
            want = dmtm_cut_nodes_reference(dmtm.ddm, whole.step)
            assert whole.cut.id_list == want


class TestFrontierRegion:
    """Regions of at least ``MIN_FRONTIER_NODES`` nodes take the
    bucketed kernel, chosen and parameterised by the region's
    subgraph: in place, buckets and counters match a search over that
    subgraph compiled on its own (the per-region build)."""

    COUNTERS = _COUNTERS + (
        "geodesic.frontier.buckets",
        "geodesic.frontier.batch_relaxations",
        "geodesic.frontier.max_frontier",
    )

    def test_matches_per_region_build(self):
        engine = standard_engine("BH", 25, density=10.0, seed=3)
        dmtm = engine.dmtm
        mesh = engine.mesh
        bounds = mesh.xy_bounds()
        lo = np.asarray(bounds.lo)
        ext = np.asarray(bounds.extents)
        regions = [
            None,
            [BoundingBox(tuple(lo), tuple(lo + ext * 0.97))],
            [
                BoundingBox(tuple(lo), tuple(lo + ext * [0.6, 1.0])),
                BoundingBox(tuple(lo + ext * [0.5, 0.0]), tuple(lo + ext)),
            ],
        ]
        n = mesh.num_vertices
        pairs = [(0, n - 1), (n // 3, 2 * n // 3), (17, n - 18)]
        bucketed = 0
        for region in regions:
            got = dmtm.extract_network(1.0, region, charge_io=False)
            want = dmtm_cut_per_region(dmtm, 1.0, region, charge_io=False)
            bucketed += got.records_used >= MIN_FRONTIER_NODES
            for a, b in pairs:
                got_ub, got_counts = self._counted(
                    lambda: dmtm.upper_bound(a, b, 1.0, network=got)
                )
                want_ub, want_counts = self._counted(
                    lambda: dmtm_upper_bound_cut_reference(dmtm, a, b, want)
                )
                assert upper_bound_bits(got_ub) == upper_bound_bits(want_ub)
                assert got_counts == want_counts
        assert bucketed == len(regions)

    def _counted(self, call):
        ctx = ObsContext("cut-frontier")
        with ctx.activate():
            out = call()
        return out, tuple(ctx.registry.counter(c).value for c in self.COUNTERS)


_coord = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, float("nan")]),
    st.floats(-10.0, 10.0),
)


@st.composite
def _box(draw):
    """A 2D box over coordinates with signed zeros, shared values and
    NaN; ordered where the pair compares, as drawn where it does not."""
    a = [draw(_coord) for _ in range(2)]
    b = [draw(_coord) for _ in range(2)]
    lo = tuple(y if y < x else x for x, y in zip(a, b))
    hi = tuple(x if y < x else y for x, y in zip(a, b))
    return BoundingBox(lo, hi)


class TestRegionKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        boxes=st.lists(_box(), max_size=6),
        rows=st.lists(_box(), min_size=0, max_size=12),
    )
    def test_matches_per_box_loop(self, boxes, rows):
        table = np.array([b.lo + b.hi for b in rows], dtype=float).reshape(-1, 4)
        got = rows_meeting_boxes(table, boxes)
        assert got.dtype == bool and got.shape == (len(rows),)
        assert np.array_equal(got, rows_meeting_boxes_reference(table, boxes))
        # The same boxes as a corner array, as the dummy-lb corridor
        # passes them.
        assert np.array_equal(rows_meeting_boxes(table, box_corners(boxes)), got)

    def test_pathnet_faces_match_per_box_selection(self):
        dmtm = _engine("EP").dmtm
        mesh = dmtm.mesh
        xy = mesh.vertices[:, :2]
        boxes = [
            BoundingBox(tuple(xy[3]), tuple(xy[3])),
            BoundingBox(tuple(np.minimum(xy[40], xy[90])), tuple(np.maximum(xy[40], xy[90]))),
        ]
        for roi in (None, [], boxes[:1], boxes, boxes + boxes):
            assert np.array_equal(
                dmtm._faces_in_roi(roi), dmtm_faces_reference(dmtm, roi)
            )
