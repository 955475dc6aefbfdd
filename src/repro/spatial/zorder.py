"""Z-order (Morton) space-filling curve keys.

Interleaving the bits of quantized x and y coordinates yields a 1D
key under which spatially close points usually get close keys — the
standard trick for *clustering* spatial records on disk pages.  The
paper clusters DMTM nodes under a B+-tree index ("a clustering B+ tree
index is used"); here the DMTM's node and face records are laid out
in z-order by :class:`~repro.storage.locator.LocatorStore`.  Fetching
an I/O region then touches a small number of contiguous key ranges,
i.e. few disk pages.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SpatialIndexError

_BITS = 21  # 21 + 21 interleaved bits fit comfortably in a Python int.


def _part1by1(n):
    """Spread the low 21 bits of n so there is a zero between each
    (an int, or elementwise over an int64 array)."""
    n = n & ((1 << _BITS) - 1)
    n = (n | (n << 16)) & 0x0000FFFF0000FFFF
    n = (n | (n << 8)) & 0x00FF00FF00FF00FF
    n = (n | (n << 4)) & 0x0F0F0F0F0F0F0F0F
    n = (n | (n << 2)) & 0x3333333333333333
    n = (n | (n << 1)) & 0x5555555555555555
    return n


def zorder_key(ix: int, iy: int) -> int:
    """Morton key of non-negative integer cell coordinates."""
    if ix < 0 or iy < 0:
        raise SpatialIndexError("z-order cells must be non-negative")
    return _part1by1(ix) | (_part1by1(iy) << 1)


def _cells(bounds, bits: int):
    """``(lo_x, span_x, lo_y, span_y, cells)`` of the quantization
    grid: ``2**bits`` cells per axis over ``bounds``."""
    if not 1 <= bits <= _BITS:
        raise SpatialIndexError(f"bits must be in [1, {_BITS}]")
    lo_x, lo_y = bounds.lo[0], bounds.lo[1]
    hi_x, hi_y = bounds.hi[0], bounds.hi[1]
    span_x = max(hi_x - lo_x, 1e-12)
    span_y = max(hi_y - lo_y, 1e-12)
    return lo_x, span_x, lo_y, span_y, (1 << bits) - 1


def zorder_key_normalized(x: float, y: float, bounds, bits: int = 16) -> int:
    """Morton key of a point quantized to ``2**bits`` cells per axis
    within the 2D bounding box ``bounds``."""
    lo_x, span_x, lo_y, span_y, cells = _cells(bounds, bits)
    ix = int(min(max((x - lo_x) / span_x, 0.0), 1.0) * cells)
    iy = int(min(max((y - lo_y) / span_y, 0.0), 1.0) * cells)
    return zorder_key(ix, iy)


def zorder_keys(points, bounds) -> np.ndarray:
    """:func:`zorder_key_normalized` of every row's x and y, at its
    default 16 bits, in one array pass: int64 keys, each equal to the
    scalar key (the same float operations, and ``astype`` truncates
    as ``int`` does)."""
    lo_x, span_x, lo_y, span_y, cells = _cells(bounds, 16)
    points = np.asarray(points, dtype=float)
    ix = (np.clip((points[:, 0] - lo_x) / span_x, 0.0, 1.0) * cells).astype(np.int64)
    iy = (np.clip((points[:, 1] - lo_y) / span_y, 0.0, 1.0) * cells).astype(np.int64)
    return _part1by1(ix) | (_part1by1(iy) << 1)
