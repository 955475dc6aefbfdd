"""Unit tests for the R-tree (vs brute force)."""

import numpy as np
import pytest

from repro.errors import SpatialIndexError
from repro.geometry.primitives import BoundingBox
from repro.spatial.rtree import RTree


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(7)
    return rng.uniform(0.0, 100.0, size=(400, 2))


@pytest.fixture(scope="module")
def tree(points):
    t = RTree(max_entries=8)
    for i, p in enumerate(points):
        t.insert_point(p, i)
    return t


class TestConstruction:
    def test_bad_capacity(self):
        with pytest.raises(SpatialIndexError):
            RTree(max_entries=1)

    def test_bad_min_entries(self):
        with pytest.raises(SpatialIndexError):
            RTree(max_entries=4, min_entries=3)

    def test_len(self, tree, points):
        assert len(tree) == len(points)


class TestRangeQuery:
    def test_matches_brute_force(self, tree, points):
        region = BoundingBox((20.0, 30.0), (50.0, 70.0))
        got = sorted(tree.range_query(region))
        want = sorted(
            i for i, p in enumerate(points) if region.contains_point(p)
        )
        assert got == want

    def test_empty_region(self, tree):
        region = BoundingBox((200.0, 200.0), (300.0, 300.0))
        assert tree.range_query(region) == []

    def test_whole_space(self, tree, points):
        region = BoundingBox((-1.0, -1.0), (101.0, 101.0))
        assert len(tree.range_query(region)) == len(points)

    def test_empty_tree(self):
        t = RTree()
        assert t.range_query(BoundingBox((0, 0), (1, 1))) == []


class TestCircleQuery:
    @pytest.mark.parametrize("radius", [0.0, 5.0, 25.0, 80.0])
    def test_matches_brute_force(self, tree, points, radius):
        center = (42.0, 58.0)
        got = sorted(tree.circle_query(center, radius))
        want = sorted(
            i
            for i, p in enumerate(points)
            if np.hypot(p[0] - center[0], p[1] - center[1]) <= radius
        )
        assert got == want

    def test_negative_radius_rejected(self, tree):
        with pytest.raises(SpatialIndexError):
            tree.circle_query((0, 0), -1.0)


class TestKnn:
    @pytest.mark.parametrize("k", [1, 3, 10, 50])
    def test_matches_brute_force(self, tree, points, k):
        q = (33.0, 66.0)
        got = [i for _d, i in tree.knn(q, k)]
        want = [
            i
            for _d, i in sorted(
                (np.hypot(p[0] - q[0], p[1] - q[1]), i)
                for i, p in enumerate(points)
            )[:k]
        ]
        assert got == want

    def test_distances_ascending(self, tree):
        result = tree.knn((10.0, 10.0), 20)
        dists = [d for d, _i in result]
        assert dists == sorted(dists)

    def test_k_larger_than_tree(self, points):
        t = RTree()
        for i, p in enumerate(points[:5]):
            t.insert_point(p, i)
        assert len(t.knn((0, 0), 10)) == 5

    def test_bad_k(self, tree):
        with pytest.raises(SpatialIndexError):
            tree.knn((0, 0), 0)

    def test_empty_tree(self):
        assert RTree().knn((0, 0), 3) == []


class TestNearestIter:
    def test_yields_all_in_order(self, tree, points):
        q = (15.0, 85.0)
        seen = list(tree.nearest_iter(q))
        assert len(seen) == len(points)
        dists = [d for d, _i in seen]
        assert dists == sorted(dists)

    def test_lazy_prefix_matches_knn(self, tree):
        import itertools

        q = (55.0, 45.0)
        prefix = list(itertools.islice(tree.nearest_iter(q), 7))
        assert prefix == tree.knn(q, 7)

    def test_empty_tree_iter(self):
        assert list(RTree().nearest_iter((0, 0))) == []


class TestBoxEntries:
    def test_box_payloads(self):
        t = RTree(max_entries=4)
        boxes = [
            BoundingBox((i, i), (i + 2.0, i + 2.0)) for i in range(30)
        ]
        for i, b in enumerate(boxes):
            t.insert(b, i)
        region = BoundingBox((5.0, 5.0), (8.0, 8.0))
        got = sorted(t.range_query(region))
        want = sorted(i for i, b in enumerate(boxes) if b.intersects(region))
        assert got == want
