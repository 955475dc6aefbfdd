"""Axis-aligned bounding boxes (MBRs) and line segments.

The paper leans on MBRs in three places: MSDN lower bounds use the
*minimum distance between segment MBRs* as edge weights, the refined
upper-bound search region is a union of *descendant-node MBRs*, and
I/O regions are MBRs that get merged when they overlap significantly.
:class:`BoundingBox` therefore supports any dimension (2 for xy
I/O regions, 3 for segment MBRs) and implements exactly those
operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned box given by its lower and upper corners.

    Immutable; all combining operations return new boxes.  ``lo`` and
    ``hi`` are tuples so the box is hashable and safe as a dict key.
    """

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise GeometryError("corner dimensions differ")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise GeometryError(f"inverted box: lo={self.lo} hi={self.hi}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def of_points(cls, points) -> "BoundingBox":
        """Smallest box containing all the given points."""
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            raise GeometryError("cannot bound an empty point set")
        pts = pts.reshape(-1, pts.shape[-1])
        return cls(tuple(pts.min(axis=0)), tuple(pts.max(axis=0)))

    @classmethod
    def around(cls, center, half_extent) -> "BoundingBox":
        """Box centred at ``center`` extending ``half_extent`` each way."""
        c = np.asarray(center, dtype=float)
        h = np.broadcast_to(np.asarray(half_extent, dtype=float), c.shape)
        return cls(tuple(c - h), tuple(c + h))

    # -- basic properties -----------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    @property
    def extents(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    def measure(self) -> float:
        """Area (2D) or volume (3D) of the box: the product of the
        extents, left to right, as ``np.prod(self.extents)``."""
        result = 1.0
        for l, h in zip(self.lo, self.hi):
            result *= h - l
        return float(result)

    def perimeter(self) -> float:
        """Sum of edge lengths; the classic R-tree split objective."""
        return float(2.0 * np.sum(self.extents))

    # -- predicates -------------------------------------------------------
    # (scalar implementations, like union and measure: these run
    # millions of times per query, where per-call numpy overhead
    # dominates)

    def contains_point(self, p) -> bool:
        return all(
            l <= float(c) <= h for l, c, h in zip(self.lo, p, self.hi)
        )

    def contains_box(self, other: "BoundingBox") -> bool:
        return all(ol >= sl for ol, sl in zip(other.lo, self.lo)) and all(
            oh <= sh for oh, sh in zip(other.hi, self.hi)
        )

    def intersects(self, other: "BoundingBox") -> bool:
        for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi):
            if sl > oh or sh < ol:
                return False
        return True

    # -- combining ops ----------------------------------------------------

    def union(self, other: "BoundingBox") -> "BoundingBox":
        # np.minimum / np.maximum per coordinate: the left value when
        # strictly smaller / larger or NaN, else the right one (so
        # min(-0.0, 0.0) is 0.0 and a NaN on either side wins).
        return BoundingBox(
            tuple(
                a if a < b or a != a else b for a, b in zip(self.lo, other.lo)
            ),
            tuple(
                a if a > b or a != a else b for a, b in zip(self.hi, other.hi)
            ),
        )

    def intersection(self, other: "BoundingBox") -> "BoundingBox | None":
        """Overlap box, or ``None`` when the boxes are disjoint.

        Per coordinate ``np.maximum`` of the lows and ``np.minimum``
        of the highs, with the tie and NaN rules :meth:`union`
        spells out."""
        lo = tuple(
            a if a > b or a != a else b for a, b in zip(self.lo, other.lo)
        )
        hi = tuple(
            a if a < b or a != a else b for a, b in zip(self.hi, other.hi)
        )
        if any(l > h for l, h in zip(lo, hi)):
            return None
        return BoundingBox(lo, hi)

    def expanded(self, margin: float) -> "BoundingBox":
        """Box grown by ``margin`` on every side (the paper's "double
        each vertex's MBR" region expansion uses this)."""
        if margin < 0:
            raise GeometryError("margin must be non-negative")
        return BoundingBox(
            tuple(l - margin for l in self.lo), tuple(h + margin for h in self.hi)
        )

    def scaled(self, factor: float) -> "BoundingBox":
        """Box scaled about its centre by ``factor``."""
        if factor < 0:
            raise GeometryError("factor must be non-negative")
        c = self.center
        h = self.extents / 2.0 * factor
        return BoundingBox(tuple(c - h), tuple(c + h))

    # -- metrics ---------------------------------------------------------

    def min_dist_point(self, p) -> float:
        """Minimum distance from a point to the box (0 if inside)."""
        total = 0.0
        for l, c, h in zip(self.lo, p, self.hi):
            c = float(c)
            gap = l - c if c < l else (c - h if c > h else 0.0)
            total += gap * gap
        return math.sqrt(total)

    def min_dist_box(self, other: "BoundingBox") -> float:
        """Minimum distance between two boxes (0 if they intersect).

        This is the MSDN edge-weight metric: it never exceeds the true
        minimum distance between the geometry inside the boxes, which
        is what makes the MSDN estimate a *lower* bound.
        """
        total = 0.0
        for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi):
            gap = sl - oh if sl > oh else (ol - sh if ol > sh else 0.0)
            total += gap * gap
        return math.sqrt(total)

    def overlap_fraction(self, other: "BoundingBox") -> float:
        """Overlap measure relative to the *smaller* box.

        MR3 merges two candidate I/O regions when this fraction
        exceeds a threshold (the paper suggests 80 %).
        """
        inter = self.intersection(other)
        if inter is None:
            return 0.0
        smaller = min(self.measure(), other.measure())
        if smaller == 0.0:
            # Degenerate boxes that still intersect fully overlap.
            return 1.0
        return inter.measure() / smaller

    def xy(self) -> "BoundingBox":
        """Projection onto the first two coordinates."""
        return BoundingBox(tuple(self.lo[:2]), tuple(self.hi[:2]))


def region_boxes(region) -> "list[BoundingBox] | None":
    """A region argument as a list of boxes: None (no restriction)
    stays None, one box becomes a one-box list, any other iterable of
    boxes a list of them (empty: a region that keeps nothing)."""
    if region is None:
        return None
    if isinstance(region, BoundingBox):
        return [region]
    return list(region)


def box_corners(boxes) -> np.ndarray:
    """The xy corners of ``boxes`` (2D or 3D) as an ``(m, 4)`` array
    laid out ``[lo_x, lo_y, hi_x, hi_y]``; a corner array is returned
    as it is."""
    if isinstance(boxes, np.ndarray):
        return boxes
    return np.array(
        [(b.lo[0], b.lo[1], b.hi[0], b.hi[1]) for b in boxes], dtype=np.float64
    ).reshape(-1, 4)


def corner_boxes(corners: np.ndarray) -> "list[BoundingBox]":
    """The 2D boxes of an ``(m, 4)`` corner array, in row order."""
    return [
        BoundingBox((lo_x, lo_y), (hi_x, hi_y))
        for lo_x, lo_y, hi_x, hi_y in corners.tolist()
    ]


def rows_meeting_boxes(rows: np.ndarray, boxes) -> np.ndarray:
    """Mask of the xy-MBR rows that meet any of ``boxes``.

    ``rows`` is an ``(n, 4)`` array laid out ``[lo_x, lo_y, hi_x,
    hi_y]``; ``boxes`` is a sequence of 2D or 3D boxes, of which only
    x and y count, or their corners laid out like ``rows``
    (:func:`box_corners`).  Intervals are closed, so a row that only
    touches a box meets it and a point box selects the rows it lies
    in; a NaN coordinate meets nothing.  With several boxes, rows
    outside their joint extent are dropped first and the rest are
    tested against every box at once.
    """
    if len(boxes) == 0:
        return np.zeros(rows.shape[0], dtype=bool)
    if len(boxes) == 1:
        lo_x, lo_y, hi_x, hi_y = (
            boxes[0].tolist()
            if isinstance(boxes, np.ndarray)
            else (boxes[0].lo[0], boxes[0].lo[1], boxes[0].hi[0], boxes[0].hi[1])
        )
        return (
            (rows[:, 0] <= hi_x)
            & (rows[:, 2] >= lo_x)
            & (rows[:, 1] <= hi_y)
            & (rows[:, 3] >= lo_y)
        )
    lo_x, lo_y, hi_x, hi_y = box_corners(boxes).T
    # fmin/fmax skip NaN corners, so the joint extent still covers
    # every box that can meet a row.
    near = np.flatnonzero(
        (rows[:, 0] <= np.fmax.reduce(hi_x))
        & (rows[:, 2] >= np.fmin.reduce(lo_x))
        & (rows[:, 1] <= np.fmax.reduce(hi_y))
        & (rows[:, 3] >= np.fmin.reduce(lo_y))
    )
    sub = rows[near]
    hit = (
        (sub[:, 0, None] <= hi_x)
        & (sub[:, 2, None] >= lo_x)
        & (sub[:, 1, None] <= hi_y)
        & (sub[:, 3, None] >= lo_y)
    ).any(axis=1)
    mask = np.zeros(rows.shape[0], dtype=bool)
    mask[near[hit]] = True
    return mask


@dataclass(frozen=True)
class Segment:
    """A straight line segment between two points (any dimension)."""

    a: tuple
    b: tuple

    @property
    def length(self) -> float:
        return float(np.linalg.norm(np.asarray(self.b) - np.asarray(self.a)))

    @property
    def midpoint(self) -> np.ndarray:
        return (np.asarray(self.a) + np.asarray(self.b)) / 2.0

    def mbr(self) -> BoundingBox:
        return BoundingBox(
            tuple(np.minimum(self.a, self.b)), tuple(np.maximum(self.a, self.b))
        )

    def point_at(self, t: float) -> np.ndarray:
        """Point ``a + t * (b - a)`` for parameter ``t`` in [0, 1]."""
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        return a + t * (b - a)

    def dist_point(self, p) -> float:
        """Distance from a point to the segment."""
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        p = np.asarray(p, dtype=float)
        ab = b - a
        denom = float(np.dot(ab, ab))
        if denom == 0.0:
            return float(np.linalg.norm(p - a))
        t = float(np.clip(np.dot(p - a, ab) / denom, 0.0, 1.0))
        return float(np.linalg.norm(p - (a + t * ab)))
