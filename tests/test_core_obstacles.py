"""Tests for the obstacle-constrained sk-NN extension."""

import numpy as np
import pytest

from repro.core.obstacles import obstacle_knn, region_faces, steep_faces
from repro.errors import QueryError
from repro.geometry.primitives import BoundingBox


class TestSteepFaces:
    def test_flat_has_none(self, flat_mesh):
        assert steep_faces(flat_mesh, 10.0) == set()

    def test_rough_has_some(self, rough_mesh):
        steep = steep_faces(rough_mesh, 30.0)
        assert steep
        assert steep < set(range(rough_mesh.num_faces))

    def test_threshold_monotone(self, rough_mesh):
        assert steep_faces(rough_mesh, 50.0) <= steep_faces(rough_mesh, 30.0)

    def test_bad_threshold(self, rough_mesh):
        with pytest.raises(QueryError):
            steep_faces(rough_mesh, 0.0)


class TestObstacleKnn:
    def test_no_obstacles_matches_pathnet_order(self, small_engine):
        qv = small_engine.snap(700.0, 700.0)
        free = obstacle_knn(
            small_engine.mesh, small_engine.objects, qv, 3, forbidden_faces=set()
        )
        assert len(free) == 3
        dists = [d for _o, d in free]
        assert dists == sorted(dists)

    def test_obstacles_never_shorten(self, small_engine):
        qv = small_engine.snap(700.0, 700.0)
        mesh = small_engine.mesh
        free = dict(
            obstacle_knn(mesh, small_engine.objects, qv, len(small_engine.objects), set())
        )
        wall = steep_faces(mesh, 35.0)
        constrained = obstacle_knn(
            mesh, small_engine.objects, qv, len(small_engine.objects), wall
        )
        for obj, d in constrained:
            assert d >= free[obj] - 1e-9

    def test_blocking_region_excludes(self, small_engine):
        """A forbidden band across the middle cuts off the far side."""
        mesh = small_engine.mesh
        bounds = mesh.xy_bounds()
        mid_y = float(bounds.center[1])
        band = BoundingBox(
            (bounds.lo[0] - 1.0, mid_y - 100.0),
            (bounds.hi[0] + 1.0, mid_y + 100.0),
        )
        wall = region_faces(mesh, band)
        qv = mesh.nearest_vertex((float(bounds.center[0]), float(bounds.lo[1]) + 100.0))
        result = obstacle_knn(
            mesh, small_engine.objects, qv, len(small_engine.objects), wall
        )
        reached = {obj for obj, _d in result}
        far_side = {
            obj
            for obj in range(len(small_engine.objects))
            if small_engine.objects.position_of(obj)[1] > mid_y + 100.0
        }
        assert reached.isdisjoint(far_side)

    def test_query_inside_obstacle_empty(self, small_engine):
        mesh = small_engine.mesh
        qv = small_engine.snap(700.0, 700.0)
        wall = set(range(mesh.num_faces))  # everything forbidden
        assert obstacle_knn(mesh, small_engine.objects, qv, 3, wall) == []

    def test_engine_facade(self, small_engine):
        qv = small_engine.snap(700.0, 700.0)
        res = small_engine.obstacle_query(qv, 2, max_slope_deg=55.0)
        assert res.method == "obstacle"
        assert len(res.object_ids) <= 2
        for lb, ub in res.intervals:
            assert lb == ub

    def test_engine_rejects_out_of_range_vertex(self, small_engine):
        for vertex in (-1, small_engine.mesh.num_vertices):
            with pytest.raises(QueryError, match="out of range"):
                small_engine.obstacle_query(vertex, 2)
