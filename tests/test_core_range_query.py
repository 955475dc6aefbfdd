"""Tests for the surface range query extension (paper §6)."""

import numpy as np
import pytest

from repro.core.baseline import exact_knn
from repro.errors import QueryError
from repro.geodesic.exact import ExactGeodesic


@pytest.fixture(scope="module")
def truth(request):
    """Exact surface distance from a fixed query to every object."""
    engine = request.getfixturevalue("small_engine")
    qv = engine.snap(700.0, 700.0)
    geo = ExactGeodesic(engine.mesh, qv)
    dists = {
        obj: geo.distance_to(engine.objects.vertex_of(obj))
        for obj in range(len(engine.objects))
    }
    return qv, dists


class TestSurfaceRangeQuery:
    def test_result_within_radius(self, small_engine, truth):
        qv, dists = truth
        radius = float(np.median(list(dists.values())))
        res = small_engine.range_query(qv, radius)
        for obj, (lb, ub) in zip(res.object_ids, res.intervals):
            assert ub <= radius + 1e-9
            assert dists[obj] <= radius + 1e-9

    def test_no_true_member_missed(self, small_engine, truth):
        """Every object whose exact distance is clearly inside (by
        more than the pathnet tolerance) must be returned."""
        qv, dists = truth
        radius = float(np.median(list(dists.values())))
        res = small_engine.range_query(qv, radius)
        got = set(res.object_ids)
        for obj, d in dists.items():
            if d <= radius * 0.95:
                assert obj in got

    def test_zero_radius(self, small_engine):
        qv = small_engine.objects.vertex_of(0)
        res = small_engine.range_query(qv, 0.0)
        assert res.object_ids == [0]

    def test_radius_growth_monotone(self, small_engine, truth):
        qv, dists = truth
        r_small = float(np.quantile(list(dists.values()), 0.3))
        r_large = float(np.quantile(list(dists.values()), 0.7))
        small = set(small_engine.range_query(qv, r_small).object_ids)
        large = set(small_engine.range_query(qv, r_large).object_ids)
        assert small <= large

    def test_huge_radius_returns_all(self, small_engine, truth):
        qv, dists = truth
        res = small_engine.range_query(qv, max(dists.values()) * 2.0)
        assert len(res.object_ids) == len(small_engine.objects)

    def test_negative_radius_rejected(self, small_engine):
        with pytest.raises(QueryError):
            small_engine.range_query(0, -1.0)

    def test_out_of_range_vertex_rejected(self, small_engine):
        for vertex in (-1, small_engine.mesh.num_vertices):
            with pytest.raises(QueryError, match="out of range"):
                small_engine.range_query(vertex, 150.0)

    def test_consistent_with_knn(self, small_engine, truth):
        """range(q, dS of the k-th neighbour) contains the k-NN set
        (up to boundary ties within the approximation tolerance)."""
        qv, dists = truth
        knn = exact_knn(small_engine.mesh, small_engine.objects, qv, 3)
        radius = knn[-1][1] * 1.05
        res = small_engine.range_query(qv, radius)
        inside = set(res.object_ids)
        for obj, d in knn:
            if d <= radius * 0.97:
                assert obj in inside
