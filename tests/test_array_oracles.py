"""The array data path pinned against the reference implementations.

MSDN lower bounds, MSDN region charging and DMTM cut extraction run
on cached arrays; :mod:`repro.testkit.reference` keeps the object
walks they replaced.  Results must agree exactly — bound value, path
keys, chunk count, graph — and both sides must read the same pages in
the same order.  The pathnet builder and the search kernels have
their own oracle suites (test_geodesic_frontier, test_geodesic_csr);
here only the builder's degenerate-face error is pinned.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GeodesicError
from repro.geodesic.csr import graph_dijkstra_with_parents
from repro.geodesic.pathnet import build_pathnet
from repro.geometry.primitives import BoundingBox
from repro.terrain.mesh import TriangleMesh
from repro.testkit.generators import standard_engine
from repro.testkit.reference import (
    build_pathnet_reference,
    dijkstra_with_parents_reference,
    dmtm_cut_reference,
    msdn_lower_bound_reference,
    msdn_touch_region_reference,
)


@pytest.fixture(scope="module", params=["BH", "EP"])
def engine(request):
    return standard_engine(request.param, 17, density=10.0, seed=3)


@pytest.fixture
def page_log(engine, monkeypatch):
    """Every page id the engine's structures read, in order, logged
    at the run read every page read goes through (production reads
    runs, the oracles one page at a time)."""
    log: list[int] = []
    read_pages = engine.pages.read_pages

    def logged(page_ids):
        log.extend(page_ids)
        return read_pages(page_ids)

    monkeypatch.setattr(engine.pages, "read_pages", logged)
    return log


def _pairs(engine):
    """Query/object point pairs across the terrain, both plane axes."""
    mesh = engine.mesh
    n = mesh.num_vertices
    vertices = [0, n // 3, n // 2, n - 1, 17, n - 18]
    return [
        (mesh.vertices[a], mesh.vertices[b])
        for a in vertices
        for b in vertices
        if a != b
    ]


def _boxes(pa, pb, spacing):
    """An ROI around the pair and a thin one-box corridor along it."""
    roi = BoundingBox.of_points(np.array([pa[:2], pb[:2]])).expanded(spacing)
    mid = (np.asarray(pa[:2]) + np.asarray(pb[:2])) / 2.0
    corridor = [BoundingBox(tuple(mid - spacing), tuple(mid + spacing))]
    return roi, corridor


def _path_corridor(msdn, pa, pb, roi, prev_res):
    """The dummy-lb corridor of the ranking loop: ``corridor_from_path``
    around the path of the previous (coarser) level's ROI bound."""
    prev = msdn.lower_bound(pa, pb, prev_res, roi=roi, charge_io=False)
    return msdn.corridor_from_path(prev.path_keys, prev.resolution)


class TestMSDNLowerBound:
    @pytest.mark.parametrize("charge_io", [False, True])
    def test_matches_object_walk(self, engine, page_log, charge_io):
        msdn = engine.msdn
        for pa, pb in _pairs(engine):
            roi, corridor = _boxes(pa, pb, 2.0 * msdn.spacing)
            for i, res in enumerate(msdn.resolutions):
                prev_res = msdn.resolutions[max(i - 1, 0)]
                path = _path_corridor(msdn, pa, pb, roi, prev_res)
                for kwargs in ({}, {"roi": roi}, {"corridor": corridor},
                               {"roi": roi, "corridor": corridor},
                               {"roi": roi, "corridor": path}):
                    page_log.clear()
                    got = msdn.lower_bound(pa, pb, res, charge_io=charge_io,
                                           **kwargs)
                    got_pages = list(page_log)
                    page_log.clear()
                    want = msdn_lower_bound_reference(
                        msdn, pa, pb, res, charge_io=charge_io, **kwargs
                    )
                    assert got.value == want.value
                    assert got.path_keys == want.path_keys
                    assert got.chunks_used == want.chunks_used
                    assert got == want
                    assert got_pages == page_log
                    assert bool(got_pages) == (charge_io and got.chunks_used > 0)

    def test_batch_matches_object_walk(self, engine, page_log):
        msdn = engine.msdn
        pairs = _pairs(engine)[:8]
        source = pairs[0][0]
        targets = [pb for _pa, pb in pairs]
        rois = [_boxes(source, pb, msdn.spacing)[0] for pb in targets]
        for res in msdn.resolutions:
            for roi_list in (None, rois):
                page_log.clear()
                got = msdn.lower_bound_batch(
                    source, targets, res, rois=roi_list, charge_io=True
                )
                got_pages = list(page_log)
                page_log.clear()
                want = [
                    msdn_lower_bound_reference(
                        msdn, source, pb, res,
                        roi=None if roi_list is None else roi_list[i],
                        charge_io=True,
                    )
                    for i, pb in enumerate(targets)
                ]
                assert got == want
                assert got_pages == page_log


def _edge_rois(msdn, mesh) -> list:
    """ROIs at the edges of plane slicing, each with whether it reads
    pages: box edges exactly on a plane's row coordinate, a box off the
    terrain, two corner boxes whose joint extent spans planes neither
    meets, the empty ROI and NaN corners."""
    (x0, y0), (x1, y1) = mesh.vertices[:, :2].min(0), mesh.vertices[:, :2].max(0)
    family = msdn._families[(0, msdn.resolutions[0])]
    plane = len(family.offsets) // 2
    rows = family.xy[family.offsets[plane] : family.offsets[plane + 1]]
    low, high = float(rows[:, 0].min()), float(rows[:, 2].max())
    step = 3.0 * msdn.spacing
    nan = float("nan")
    return [
        # Closed intervals: a box whose edge is the plane's least or
        # greatest row coordinate still meets that plane's rows.
        (BoundingBox((low - step, y0), (low, y1)), True),
        (BoundingBox((high, y0), (high + step, y1)), True),
        (BoundingBox((-1e9, -1e9), (-1e9 + 1.0, -1e9 + 1.0)), False),
        ([BoundingBox((x0, y0), (x0 + step, y0 + step)),
          BoundingBox((x1 - step, y1 - step), (x1, y1))], True),
        ([], False),
        (BoundingBox((nan, y0), (x1, y1)), False),
        ([BoundingBox((x0, nan), (x1, y1)), BoundingBox((x0, y0), (x1, y1))], True),
    ]


class TestMSDNTouchRegion:
    def test_matches_record_id_charging(self, engine, page_log):
        msdn = engine.msdn
        mesh = engine.mesh
        box = BoundingBox.of_points(mesh.vertices[[0, mesh.num_vertices // 2], :2])
        rois = [(None, True), (box, True), ([box, box.expanded(msdn.spacing)], True)]
        for res in msdn.resolutions:
            for roi, reads in rois + _edge_rois(msdn, mesh):
                for axes in ((0, 1), (0,), (1,)):
                    page_log.clear()
                    msdn.touch_region(res, roi, axes=axes)
                    got_pages = list(page_log)
                    page_log.clear()
                    msdn_touch_region_reference(msdn, res, roi, axes=axes)
                    assert got_pages == page_log
                    assert bool(got_pages) == reads


def _cut_view_graph(view):
    """A cut-level view as ``(keys, positions, adjacency)`` in the
    reference's ``("n", id)`` keys: the region's rows of the compiled
    cut and the edges among them, each node's list in CSR order."""
    cut = view.cut
    rows = np.arange(cut.ids.size) if view.region is None else np.flatnonzero(view.region)
    keep = set(rows.tolist())
    indptr, indices, weights = cut.csr.lists()
    keys = [("n", cut.id_list[r]) for r in rows]
    positions = [tuple(cut.csr.positions[r]) for r in rows]
    adjacency = [
        [
            (("n", cut.id_list[indices[e]]), weights[e])
            for e in range(indptr[r], indptr[r + 1])
            if indices[e] in keep
        ]
        for r in rows.tolist()
    ]
    return keys, positions, adjacency


class TestDMTMCut:
    @pytest.mark.parametrize("resolution", [0.005, 0.25, 0.5, 1.0])
    def test_matches_add_edge_build(self, engine, page_log, resolution):
        dmtm = engine.dmtm
        mesh = engine.mesh
        box = BoundingBox.of_points(mesh.vertices[[0, mesh.num_vertices // 2], :2])
        for roi in (None, box):
            page_log.clear()
            got = dmtm.extract_network(resolution, roi)
            got_pages = list(page_log)
            page_log.clear()
            want = dmtm_cut_reference(dmtm, resolution, roi)
            assert got_pages == page_log
            assert (got.step, got.records_used) == (want.step, want.records_used)
            keys, positions, adjacency = _cut_view_graph(got)
            w = want.graph
            assert keys == [w.key_of(i) for i in range(len(w))]
            assert positions == [tuple(w.position_of(i)) for i in range(len(w))]
            want_adjacency = [
                [(w.key_of(v), d) for v, d in nbrs] for nbrs in w.adjacency
            ]
            assert sorted(map(sorted, adjacency)) == sorted(
                map(sorted, want_adjacency)
            )
            for source in range(0, len(w), max(1, len(w) // 4)):
                row = got.cut_row(w.key_of(source)[1])
                dist, _ = graph_dijkstra_with_parents(
                    got.cut.csr, row, region=got.region
                )
                want_dist, _ = dijkstra_with_parents_reference(w.adjacency, source)
                assert {got.cut.id_list[n]: d for n, d in dist.items()} == {
                    w.key_of(n)[1]: d for n, d in want_dist.items()
                }

    def test_empty_cut(self, engine, page_log):
        far = BoundingBox((-1e9, -1e9), (-1e9 + 1.0, -1e9 + 1.0))
        got = engine.dmtm.extract_network(0.5, far)
        want = dmtm_cut_reference(engine.dmtm, 0.5, far)
        assert not got.region.any() and len(want.graph) == 0
        assert got.records_used == want.records_used == 0
        assert page_log == []


class TestPathnetBuilder:
    def test_degenerate_face_raises(self):
        vertices = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.5]], dtype=float
        )
        faces = np.array([[0, 1, 2], [1, 3, 1]])
        mesh = TriangleMesh(vertices, faces, validate=False)
        with pytest.raises(GeodesicError, match="face 1"):
            build_pathnet(mesh, 1)
        # The reference loop tolerates it: the oracle is not a gate.
        assert len(build_pathnet_reference(mesh, 1)) > 0
