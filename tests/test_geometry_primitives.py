"""Unit tests for BoundingBox and Segment."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.primitives import BoundingBox, Segment


def box(lo, hi):
    return BoundingBox(tuple(lo), tuple(hi))


class TestBoundingBoxConstruction:
    def test_inverted_rejected(self):
        with pytest.raises(GeometryError):
            box((1, 0), (0, 1))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            BoundingBox((0, 0), (1, 1, 1))

    def test_of_points(self):
        b = BoundingBox.of_points([(1, 5), (3, 2), (2, 4)])
        assert b.lo == (1, 2)
        assert b.hi == (3, 5)

    def test_of_points_empty_rejected(self):
        with pytest.raises(GeometryError):
            BoundingBox.of_points(np.empty((0, 2)))

    def test_around(self):
        b = BoundingBox.around((5.0, 5.0), 2.0)
        assert b.lo == (3.0, 3.0)
        assert b.hi == (7.0, 7.0)

    def test_hashable(self):
        assert hash(box((0, 0), (1, 1))) == hash(box((0, 0), (1, 1)))


class TestBoundingBoxProperties:
    def test_measure_2d(self):
        assert box((0, 0), (2, 3)).measure() == pytest.approx(6.0)

    def test_measure_3d(self):
        assert box((0, 0, 0), (2, 3, 4)).measure() == pytest.approx(24.0)

    def test_perimeter(self):
        assert box((0, 0), (2, 3)).perimeter() == pytest.approx(10.0)

    def test_center(self):
        assert tuple(box((0, 0), (4, 6)).center) == (2.0, 3.0)

    def test_xy_projection(self):
        b = box((1, 2, 3), (4, 5, 6)).xy()
        assert b.lo == (1, 2)
        assert b.hi == (4, 5)


class TestBoundingBoxPredicates:
    def test_contains_point(self):
        b = box((0, 0), (2, 2))
        assert b.contains_point((1, 1))
        assert b.contains_point((0, 2))  # boundary
        assert not b.contains_point((3, 1))

    def test_contains_box(self):
        outer = box((0, 0), (10, 10))
        assert outer.contains_box(box((1, 1), (9, 9)))
        assert not outer.contains_box(box((5, 5), (11, 9)))

    def test_intersects(self):
        a = box((0, 0), (2, 2))
        assert a.intersects(box((1, 1), (3, 3)))
        assert a.intersects(box((2, 2), (3, 3)))  # corner touch
        assert not a.intersects(box((3, 3), (4, 4)))

    def test_intersects_symmetric(self):
        a = box((0, 0), (2, 2))
        b = box((1, -5), (1.5, 10))
        assert a.intersects(b) == b.intersects(a)


class TestBoundingBoxCombinators:
    def test_union(self):
        u = box((0, 0), (1, 1)).union(box((2, -1), (3, 0.5)))
        assert u.lo == (0, -1)
        assert u.hi == (3, 1)

    def test_intersection(self):
        i = box((0, 0), (2, 2)).intersection(box((1, 1), (3, 3)))
        assert i.lo == (1, 1)
        assert i.hi == (2, 2)

    def test_intersection_disjoint_none(self):
        assert box((0, 0), (1, 1)).intersection(box((2, 2), (3, 3))) is None

    def test_expanded(self):
        e = box((0, 0), (1, 1)).expanded(0.5)
        assert e.lo == (-0.5, -0.5)
        assert e.hi == (1.5, 1.5)

    def test_expanded_negative_rejected(self):
        with pytest.raises(GeometryError):
            box((0, 0), (1, 1)).expanded(-1.0)

    def test_scaled_double(self):
        s = box((0, 0), (2, 2)).scaled(2.0)
        assert s.lo == (-1.0, -1.0)
        assert s.hi == (3.0, 3.0)


# Exact values that tie (signed zeros included) mixed with arbitrary
# floats; NaN corners are allowed by the constructor and must
# propagate as numpy's minimum / maximum propagate them.
_corner = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, float("nan")]),
    st.floats(allow_nan=False, allow_infinity=True),
)


@st.composite
def _box(draw, dim):
    lo, hi = [], []
    for _ in range(dim):
        a, b = draw(_corner), draw(_corner)
        if a > b:
            a, b = b, a
        lo.append(a)
        hi.append(b)
    return BoundingBox(tuple(lo), tuple(hi))


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


class TestScalarCombinators:
    """union, intersection, expanded and measure are scalar; they must
    equal the numpy forms they replaced bit for bit."""

    @given(st.integers(min_value=2, max_value=3).flatmap(
        lambda dim: st.tuples(_box(dim), _box(dim))))
    @settings(max_examples=400)
    def test_union_matches_numpy(self, boxes):
        a, b = boxes
        got = a.union(b)
        assert _bits(got.lo) == _bits(np.minimum(a.lo, b.lo))
        assert _bits(got.hi) == _bits(np.maximum(a.hi, b.hi))

    @given(st.integers(min_value=2, max_value=3).flatmap(_box))
    @example(BoundingBox((0.0, math.inf), (math.nan, math.inf)))
    @settings(max_examples=400)
    def test_measure_matches_numpy(self, a):
        with np.errstate(all="ignore"):  # inf - inf, overflow
            want = float(np.prod(np.asarray(a.hi) - np.asarray(a.lo)))
        got = a.measure()
        if math.isnan(want):
            # IEEE 754 does not fix which NaN a product involving NaNs
            # returns (the sign of nan * nan varies even between calls
            # of one process), so a NaN result matches any NaN.
            assert math.isnan(got)
        else:
            assert _bits([got]) == _bits([want])

    @given(st.integers(min_value=2, max_value=3).flatmap(
        lambda dim: st.tuples(_box(dim), _box(dim))))
    @settings(max_examples=400)
    def test_intersection_matches_numpy(self, boxes):
        a, b = boxes
        lo = np.maximum(a.lo, b.lo)
        hi = np.minimum(a.hi, b.hi)
        got = a.intersection(b)
        if np.any(lo > hi):
            assert got is None
        else:
            assert _bits(got.lo) == _bits(lo)
            assert _bits(got.hi) == _bits(hi)

    @given(
        st.integers(min_value=2, max_value=3).flatmap(_box),
        st.one_of(
            st.sampled_from([0.0, -0.0, float("nan"), float("inf")]),
            st.floats(min_value=0.0, allow_infinity=True),
        ),
    )
    @settings(max_examples=400)
    def test_expanded_matches_numpy(self, a, margin):
        m = np.full(a.dim, margin)
        with np.errstate(all="ignore"):  # inf - inf
            lo = np.asarray(a.lo) - m
            hi = np.asarray(a.hi) + m
        got = a.expanded(margin)
        assert _bits(got.lo) == _bits(lo)
        assert _bits(got.hi) == _bits(hi)

    def test_signed_zero_ties_take_the_right_value(self):
        got = box((-0.0, 0.0), (0.0, -0.0)).union(box((0.0, -0.0), (-0.0, 0.0)))
        assert _bits(got.lo) == _bits((0.0, -0.0))
        assert _bits(got.hi) == _bits((-0.0, 0.0))
        got = box((-0.0, 0.0), (0.0, -0.0)).intersection(box((0.0, -0.0), (-0.0, 0.0)))
        assert _bits(got.lo) == _bits((0.0, -0.0))
        assert _bits(got.hi) == _bits((-0.0, 0.0))


class TestBoundingBoxMetrics:
    def test_min_dist_point_inside_zero(self):
        assert box((0, 0), (2, 2)).min_dist_point((1, 1)) == 0.0

    def test_min_dist_point_outside(self):
        assert box((0, 0), (1, 1)).min_dist_point((4, 5)) == pytest.approx(5.0)

    def test_min_dist_box_overlapping_zero(self):
        assert box((0, 0), (2, 2)).min_dist_box(box((1, 1), (3, 3))) == 0.0

    def test_min_dist_box_diagonal(self):
        d = box((0, 0), (1, 1)).min_dist_box(box((4, 5), (6, 7)))
        assert d == pytest.approx(5.0)

    def test_min_dist_box_3d(self):
        d = box((0, 0, 0), (1, 1, 1)).min_dist_box(box((1, 1, 3), (2, 2, 4)))
        assert d == pytest.approx(2.0)

    def test_overlap_fraction_full(self):
        big = box((0, 0), (10, 10))
        small = box((2, 2), (4, 4))
        assert big.overlap_fraction(small) == pytest.approx(1.0)

    def test_overlap_fraction_disjoint(self):
        assert box((0, 0), (1, 1)).overlap_fraction(box((5, 5), (6, 6))) == 0.0

    def test_overlap_fraction_half(self):
        a = box((0, 0), (2, 2))
        b = box((1, 0), (3, 2))
        assert a.overlap_fraction(b) == pytest.approx(0.5)


class TestSegment:
    def test_length(self):
        assert Segment((0, 0, 0), (3, 4, 0)).length == pytest.approx(5.0)

    def test_midpoint(self):
        assert tuple(Segment((0, 0), (2, 4)).midpoint) == (1.0, 2.0)

    def test_mbr(self):
        m = Segment((3, 1), (0, 2)).mbr()
        assert m.lo == (0, 1)
        assert m.hi == (3, 2)

    def test_point_at(self):
        p = Segment((0, 0), (4, 0)).point_at(0.25)
        assert tuple(p) == (1.0, 0.0)

    def test_dist_point_perpendicular(self):
        assert Segment((0, 0), (2, 0)).dist_point((1, 3)) == pytest.approx(3.0)

    def test_dist_point_beyond_end(self):
        assert Segment((0, 0), (1, 0)).dist_point((4, 4)) == pytest.approx(5.0)

    def test_dist_point_degenerate(self):
        assert Segment((1, 1), (1, 1)).dist_point((4, 5)) == pytest.approx(5.0)
