"""Tests for the INE / IER network k-NN baselines (§2.1)."""

import numpy as np
import pytest

from repro.core.network_baselines import ier_knn, ine_knn
from repro.errors import QueryError
from repro.testkit.reference import dijkstra_reference as dijkstra
from repro.testkit.reference import edge_network_reference


def brute_network_knn(mesh, objects, qv, k):
    adj = edge_network_reference(mesh)
    dist = dijkstra(adj, qv)
    ranked = sorted(
        (dist[objects.vertex_of(obj)], obj)
        for obj in range(len(objects))
        if objects.vertex_of(obj) in dist
    )
    return [(obj, d) for d, obj in ranked[:k]]


class TestIne:
    def test_matches_brute_force(self, small_engine):
        qv = small_engine.snap(800.0, 700.0)
        got = ine_knn(small_engine.mesh, small_engine.objects, qv, 5)
        want = brute_network_knn(small_engine.mesh, small_engine.objects, qv, 5)
        assert [d for _o, d in got] == pytest.approx([d for _o, d in want])
        assert {o for o, _d in got} == {o for o, _d in want}

    def test_ascending(self, small_engine):
        got = ine_knn(small_engine.mesh, small_engine.objects, 7, 6)
        dists = [d for _o, d in got]
        assert dists == sorted(dists)

    def test_validation(self, small_engine):
        with pytest.raises(QueryError):
            ine_knn(small_engine.mesh, small_engine.objects, 0, 0)
        with pytest.raises(QueryError):
            ine_knn(
                small_engine.mesh,
                small_engine.objects,
                0,
                len(small_engine.objects) + 1,
            )


class TestIer:
    def test_agrees_with_ine(self, small_engine):
        """Both compute the same thing (network k-NN); only their
        access patterns differ."""
        for qv in (7, small_engine.snap(800.0, 700.0), small_engine.snap(200.0, 1300.0)):
            ine = ine_knn(small_engine.mesh, small_engine.objects, qv, 4)
            ier = ier_knn(small_engine.mesh, small_engine.objects, qv, 4)
            assert [d for _o, d in ier] == pytest.approx([d for _o, d in ine])

    def test_query_at_object(self, small_engine):
        vid = small_engine.objects.vertex_of(2)
        ier = ier_knn(small_engine.mesh, small_engine.objects, vid, 1)
        assert ier[0][0] == 2
        assert ier[0][1] == 0.0


class TestNetworkVsSurface:
    def test_network_distance_overestimates_surface(self, small_engine):
        """The paper's motivation: dN >= dS, strictly so in general
        (network paths cannot cut across faces)."""
        from repro.geodesic.exact import ExactGeodesic

        qv = small_engine.snap(700.0, 900.0)
        ine = ine_knn(small_engine.mesh, small_engine.objects, qv, 5)
        geo = ExactGeodesic(small_engine.mesh, qv)
        overestimates = 0
        for obj, dn in ine:
            ds = geo.distance_to(small_engine.objects.vertex_of(obj))
            assert dn >= ds - 1e-9
            overestimates += dn > ds + 1e-6
        assert overestimates >= 3  # strict on most of a rugged terrain
