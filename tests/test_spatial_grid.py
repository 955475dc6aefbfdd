"""Unit tests for the uniform grid index (vs brute force)."""

import numpy as np
import pytest

from repro.errors import SpatialIndexError
from repro.geometry.primitives import BoundingBox
from repro.spatial.grid import UniformGrid


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(3)
    return rng.uniform(-50.0, 50.0, size=(300, 2))


@pytest.fixture(scope="module")
def grid(points):
    return UniformGrid(points)


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(SpatialIndexError):
            UniformGrid([])

    def test_payload_mismatch_rejected(self):
        with pytest.raises(SpatialIndexError):
            UniformGrid([(0, 0), (1, 1)], payloads=[1])

    def test_custom_payloads(self):
        g = UniformGrid([(0, 0), (10, 10)], payloads=["a", "b"])
        assert set(g.circle_query((0, 0), 1.0)) == {"a"}


class TestQueries:
    def test_range_matches_brute(self, grid, points):
        region = BoundingBox((-10.0, -20.0), (15.0, 5.0))
        got = sorted(grid.range_query(region))
        want = sorted(i for i, p in enumerate(points) if region.contains_point(p))
        assert got == want

    @pytest.mark.parametrize("radius", [0.5, 7.0, 30.0])
    def test_circle_matches_brute(self, grid, points, radius):
        center = (3.0, -4.0)
        got = sorted(grid.circle_query(center, radius))
        want = sorted(
            i
            for i, p in enumerate(points)
            if np.hypot(p[0] - center[0], p[1] - center[1]) <= radius
        )
        assert got == want

    @pytest.mark.parametrize("k", [1, 5, 17])
    def test_knn_matches_brute(self, grid, points, k):
        q = (-20.0, 30.0)
        got = [i for _d, i in grid.knn(q, k)]
        want = [
            i
            for _d, i in sorted(
                (np.hypot(p[0] - q[0], p[1] - q[1]), i)
                for i, p in enumerate(points)
            )[:k]
        ]
        assert got == want

    def test_knn_far_query(self, grid, points):
        """Query far outside the populated extent still terminates."""
        got = grid.knn((500.0, 500.0), 3)
        assert len(got) == 3

    def test_bad_k(self, grid):
        with pytest.raises(SpatialIndexError):
            grid.knn((0, 0), 0)

    def test_negative_radius(self, grid):
        with pytest.raises(SpatialIndexError):
            grid.circle_query((0, 0), -0.1)
