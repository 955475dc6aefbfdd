"""Unit tests for the DMTM (upper bounds, extraction, storage)."""

import numpy as np
import pytest

from repro.geodesic.exact import ExactGeodesic
from repro.geometry.ellipse import EllipseRegion
from repro.multires.dmtm import DMTM, RESOLUTION_PATHNET
from repro.storage.pages import PageManager
from repro.storage.stats import IOStatistics
from repro.testkit.reference import dmtm_reference_stores


@pytest.fixture(scope="module")
def dmtm(request):
    mesh = request.getfixturevalue("rough_mesh")
    return DMTM(mesh)


@pytest.fixture(scope="module")
def exact_pairs(request):
    """A few vertex pairs with exact surface distances."""
    mesh = request.getfixturevalue("rough_mesh")
    rng = np.random.default_rng(6)
    pairs = {}
    for _ in range(4):
        a, b = rng.integers(0, mesh.num_vertices, size=2)
        if a == b:
            continue
        a, b = int(a), int(b)
        pairs[(a, b)] = ExactGeodesic(mesh, a).distance_to(b)
    return pairs


RESOLUTIONS = (0.01, 0.25, 0.5, 1.0, RESOLUTION_PATHNET)


class TestUpperBounds:
    def test_always_above_exact(self, dmtm, exact_pairs):
        for (a, b), ds in exact_pairs.items():
            for res in RESOLUTIONS:
                result = dmtm.upper_bound(a, b, res)
                assert result is not None
                assert result.value >= ds - 1e-6

    def test_tightens_with_resolution(self, dmtm, exact_pairs):
        """Higher resolution gives a tighter (or equal) bound in the
        running-min sense: the min over levels up to r is monotone."""
        for (a, b), ds in exact_pairs.items():
            best = float("inf")
            values = []
            for res in RESOLUTIONS:
                value = dmtm.upper_bound(a, b, res).value
                best = min(best, value)
                values.append(best)
            assert values == sorted(values, reverse=True)
            # The pathnet level must be within a few % of exact.
            assert values[-1] <= ds * 1.08

    def test_same_vertex_zero(self, dmtm):
        result = dmtm.upper_bound(5, 5, 0.25)
        # Same ancestor: the bound is twice the offset, possibly 0.
        assert result is not None
        assert result.value >= 0.0

    def test_path_keys_end_to_end(self, dmtm):
        result = dmtm.upper_bound(3, 200, 0.5)
        assert len(result.path_keys) >= 1
        assert all(k[0] == "n" for k in result.path_keys)

    def test_roi_restriction_still_valid(self, dmtm, exact_pairs):
        mesh = dmtm.mesh
        for (a, b), ds in exact_pairs.items():
            loose = dmtm.upper_bound(a, b, 0.25).value
            ellipse = EllipseRegion(
                mesh.vertices[a][:2], mesh.vertices[b][:2], loose * 1.01
            )
            result = dmtm.upper_bound(a, b, 1.0, roi=ellipse.mbr())
            assert result is not None
            assert result.value >= ds - 1e-6

    def test_disconnected_roi_returns_none(self, dmtm):
        from repro.geometry.primitives import BoundingBox

        tiny = BoundingBox((0.0, 0.0), (1.0, 1.0))
        result = dmtm.upper_bound(0, dmtm.mesh.num_vertices - 1, 1.0, roi=tiny)
        assert result is None

    def test_multi_target_matches_single(self, dmtm):
        network = dmtm.extract_network(0.5)
        targets = [40, 90, 230]
        multi = dmtm.upper_bounds_from(7, targets, network)
        for t in targets:
            single = dmtm.upper_bound(7, t, 0.5, network=network)
            assert multi[t].value == pytest.approx(single.value)


class TestExtraction:
    def test_cut_sizes_scale(self, dmtm):
        small = dmtm.extract_network(0.1)
        large = dmtm.extract_network(0.8)
        assert small.cut.ids.size == small.records_used
        assert large.cut.ids.size == large.records_used
        assert small.records_used < large.records_used

    def test_pathnet_level(self, dmtm):
        network = dmtm.extract_network(RESOLUTION_PATHNET)
        mesh = dmtm.mesh
        assert len(network.graph) == mesh.num_vertices + mesh.num_edges

    def test_path_region_boxes(self, dmtm):
        result = dmtm.upper_bound(3, 200, 0.25)
        boxes = dmtm.path_region(result.path_keys)
        assert len(boxes) == len(result.path_keys)
        expanded = dmtm.path_region(result.path_keys, expand=50.0)
        for small, big in zip(boxes, expanded):
            assert big.contains_box(small)


class TestStorage:
    def test_touch_accounting(self, request):
        mesh = request.getfixturevalue("rough_mesh")
        stats = IOStatistics()
        pm = PageManager(page_size=1024, buffer_pages=4, stats=stats)
        dmtm = DMTM(mesh)
        dmtm.attach_storage(pm)
        before = stats.snapshot()
        dmtm.extract_network(0.25)
        assert stats.delta_since(before).physical_reads > 0

    def test_charge_io_false_skips(self, request):
        mesh = request.getfixturevalue("rough_mesh")
        stats = IOStatistics()
        pm = PageManager(page_size=1024, buffer_pages=4, stats=stats)
        dmtm = DMTM(mesh)
        dmtm.attach_storage(pm)
        before = stats.snapshot()
        dmtm.extract_network(0.25, charge_io=False)
        assert stats.delta_since(before).physical_reads == 0

    def test_pages_resolved_at_attach(self, request):
        """Node and face pages are known once storage is attached, and
        are the pages their record ids land on in the by-record attach
        (whose k-th node or face page is the store's k-th)."""
        mesh = request.getfixturevalue("rough_mesh")
        dmtm = DMTM(mesh)
        dmtm.attach_storage(PageManager(page_size=1024))
        ref_nodes, ref_faces = dmtm_reference_stores(dmtm)
        node_pages = dmtm._node_store.page_ids
        face_pages = dmtm._face_store.page_ids
        assert dmtm._node_pages.tolist() == [
            node_pages[ref_nodes.page_slot(n.node_id)]
            for n in dmtm.ddm.history.nodes
        ]
        assert dmtm._face_pages.tolist() == [
            face_pages[ref_faces.page_slot(fi)] for fi in range(mesh.num_faces)
        ]
