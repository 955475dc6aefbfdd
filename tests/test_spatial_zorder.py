"""Unit tests for z-order keys."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpatialIndexError
from repro.geometry.primitives import BoundingBox
from repro.spatial.zorder import zorder_key, zorder_key_normalized, zorder_keys


class TestZOrderKey:
    def test_origin(self):
        assert zorder_key(0, 0) == 0

    def test_interleave_pattern(self):
        # x bits land on even positions, y bits on odd positions.
        assert zorder_key(1, 0) == 0b01
        assert zorder_key(0, 1) == 0b10
        assert zorder_key(1, 1) == 0b11
        assert zorder_key(2, 0) == 0b100
        assert zorder_key(3, 5) == 0b100111

    def test_injective_on_grid(self):
        seen = set()
        for x in range(32):
            for y in range(32):
                key = zorder_key(x, y)
                assert key not in seen
                seen.add(key)

    def test_negative_rejected(self):
        with pytest.raises(SpatialIndexError):
            zorder_key(-1, 0)


class TestNormalized:
    def test_corners(self):
        b = BoundingBox((0.0, 0.0), (10.0, 10.0))
        assert zorder_key_normalized(0.0, 0.0, b, bits=4) == 0
        max_key = zorder_key_normalized(10.0, 10.0, b, bits=4)
        assert max_key == zorder_key(15, 15)

    def test_clamped_outside(self):
        b = BoundingBox((0.0, 0.0), (10.0, 10.0))
        assert zorder_key_normalized(-5.0, -5.0, b, bits=4) == 0

    def test_locality(self):
        """Nearby points should mostly share high key bits: the key
        difference of adjacent cells is smaller than that of far
        cells, on average."""
        b = BoundingBox((0.0, 0.0), (100.0, 100.0))
        near = abs(
            zorder_key_normalized(50.0, 50.0, b)
            - zorder_key_normalized(50.5, 50.0, b)
        )
        far = abs(
            zorder_key_normalized(50.0, 50.0, b)
            - zorder_key_normalized(99.0, 99.0, b)
        )
        assert near < far

    def test_bad_bits(self):
        b = BoundingBox((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(SpatialIndexError):
            zorder_key_normalized(0.5, 0.5, b, bits=0)


class TestVectorized:
    @given(
        points=st.lists(
            st.tuples(
                st.floats(-20.0, 120.0, allow_nan=False),
                st.floats(-20.0, 120.0, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        hi=st.floats(1e-9, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_scalar_keys(self, points, hi):
        """Every key equals the scalar key, clamping and zero-width
        boxes included, so a stable argsort orders rows as ``sorted``
        orders the scalar keys."""
        b = BoundingBox((0.0, 0.0), (hi, 100.0))
        keys = zorder_keys(np.array(points), b)
        want = [zorder_key_normalized(x, y, b) for x, y in points]
        assert keys.dtype == np.int64
        assert keys.tolist() == want
        assert np.argsort(keys, kind="stable").tolist() == sorted(
            range(len(want)), key=want.__getitem__
        )
