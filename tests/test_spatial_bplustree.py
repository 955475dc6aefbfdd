"""Unit tests for the B+-tree."""

import random

import pytest

from repro.errors import SpatialIndexError
from repro.spatial.bplustree import BPlusTree


class TestBasics:
    def test_bad_order(self):
        with pytest.raises(SpatialIndexError):
            BPlusTree(order=2)

    def test_insert_get(self):
        t = BPlusTree(order=4)
        t.insert(5, "five")
        t.insert(3, "three")
        assert t.get(5) == ["five"]
        assert t.get(99) == []

    def test_duplicates_kept(self):
        t = BPlusTree(order=4)
        for i in range(5):
            t.insert(7, i)
        assert sorted(t.get(7)) == [0, 1, 2, 3, 4]

    def test_len(self):
        t = BPlusTree(order=4)
        for i in range(100):
            t.insert(i, i)
        assert len(t) == 100


class TestLargeRandom:
    @pytest.fixture(scope="class")
    def tree_and_data(self):
        rng = random.Random(11)
        keys = [rng.randrange(0, 5000) for _ in range(2000)]
        t = BPlusTree(order=8)
        for i, k in enumerate(keys):
            t.insert(k, i)
        return t, keys

    def test_every_key_found(self, tree_and_data):
        t, keys = tree_and_data
        for k in set(keys):
            values = t.get(k)
            want = [i for i, kk in enumerate(keys) if kk == k]
            assert sorted(values) == want

    def test_items_sorted(self, tree_and_data):
        t, keys = tree_and_data
        out_keys = [k for k, _v in t.items()]
        assert out_keys == sorted(keys)

    def test_range_scan_matches_brute(self, tree_and_data):
        t, keys = tree_and_data
        lo, hi = 1000, 1500
        got = sorted(v for _k, v in t.range_scan(lo, hi))
        want = sorted(i for i, k in enumerate(keys) if lo <= k <= hi)
        assert got == want

    def test_range_scan_empty(self, tree_and_data):
        t, _keys = tree_and_data
        assert list(t.range_scan(100000, 200000)) == []

    def test_depth_reasonable(self, tree_and_data):
        t, _keys = tree_and_data
        assert 2 <= t.depth() <= 6


class TestTupleKeys:
    def test_composite_keys(self):
        t = BPlusTree(order=4)
        for lod in range(3):
            for z in range(20):
                t.insert((lod, z), (lod, z))
        got = [v for _k, v in t.range_scan((1, 5), (1, 10))]
        assert got == [(1, z) for z in range(5, 11)]
