"""Support Distance Networks: chunked crossing lines and the
lower-bound Dijkstra over them.

"A network is constructed from the SDN by treating each line segment
as a node and there is an edge to link a node with each of the nodes
which are line segments from the neighboring crossing lines.  The
length of an edge is the minimum Euclidian distance between the MBRs
of the two line segments." (paper, §3.3)

The lower-bound argument: a surface path from ``a`` to ``b`` crosses
every selected plane between them at least once; chaining the
crossing points gives a sequence whose consecutive straight-line
distances are each at least the min-MBR-distance edge weight, so the
layered Dijkstra distance can never exceed the true path length.
Dropping planes or enlarging chunk MBRs only *lowers* the estimate —
which is exactly why coarse SDNs stay safe and finer ones are
monotonically tighter.

The other direction bounds the DP itself: any one chain through the
layers, priced with the DP's own float steps, is at least the DP's
minimum.  :meth:`SdnFamily.crossing_rows` picks one such *witness
chain* and :func:`chain_length` prices it, which lets the dummy-lb
screen answer "below the threshold" without running the DP.  The DP
prices on arrays and the chain in Python floats, so there is one
float recipe of an MSDN hop in two forms: :func:`_box_distances` and
its scalar twin :func:`_box_distance`, which
``tests/test_msdn_sdn.py::TestWitnessChain`` holds bit-equal to the
array kernels (NaN and infinity included).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GeometryError
from repro.geometry.polyline import Polyline

#: Bytes of one chunk record on an MSDN page: axis, plane index, plane
#: value, resolution in per mille, first and last segment, then the
#: MBR's lo and hi corners (``<BIdHII6d``).
CHUNK_RECORD_BYTES = 71


class SdnFamily:
    """The chunked SDN of one plane family at one resolution, as row
    arrays: plane ``i`` owns rows ``offsets[i]:offsets[i + 1]``, in
    order along its crossing line.

    ``lo`` / ``hi`` are the 3D chunk MBRs (the DP input), ``xy`` the
    same boxes' xy projection laid out ``[lo_x, lo_y, hi_x, hi_y]``
    (ROI filtering), ``plane`` / ``first`` / ``last`` each row's plane
    index and first and last original segment (chunk keys).

    Once storage is attached (:meth:`attach_pages`), the rows are cut
    into *segments*, maximal row runs of one plane on one page:
    ``seg_start`` holds each segment's first row, ``seg_page`` its page
    id and ``plane_seg`` each plane's first segment (plane ``i`` owns
    segments ``plane_seg[i]:plane_seg[i + 1]``), else all are None.
    Rows are paged in row order, so each plane's segments list its
    distinct pages in ascending order.  ``plane_lo`` / ``plane_hi``
    then hold each plane's extent along the plane axis: the least low
    and greatest high coordinate of its rows, which interpolated
    crossing points can leave an ulp off the nominal plane value.
    """

    __slots__ = (
        "lo", "hi", "xy", "offsets", "plane", "first", "last",
        "seg_start", "seg_page", "plane_seg", "plane_lo", "plane_hi",
        "_code_base", "_codes",
    )

    def __init__(self, lo, hi, offsets, plane, first, last):
        self.lo = lo
        self.hi = hi
        self.xy = np.empty((lo.shape[0], 4))
        self.xy[:, :2] = lo[:, :2]
        self.xy[:, 2:] = hi[:, :2]
        self.offsets = offsets
        self.plane = plane
        self.first = first
        self.last = last
        self.seg_start: np.ndarray | None = None
        self.seg_page: np.ndarray | None = None
        self.plane_seg: np.ndarray | None = None
        self.plane_lo: np.ndarray | None = None
        self.plane_hi: np.ndarray | None = None
        # Rows are in (plane, first) order and ``first`` stays below
        # ``_code_base``, so ``plane * _code_base + first`` ascends
        # strictly: a chunk key's row is one searchsorted away (row_of).
        self._code_base = int(first.max()) + 1 if first.size else 1
        self._codes = plane * self._code_base + first

    def __len__(self) -> int:
        return int(self.lo.shape[0])

    def key(self, axis: int, row: int) -> tuple:
        """The chunk key of a row: ``("c", axis, plane, first, last)``."""
        return (
            "c",
            axis,
            int(self.plane[row]),
            int(self.first[row]),
            int(self.last[row]),
        )

    def row_of(self, plane: int, first: int, last: int) -> int | None:
        """The row of chunk ``(plane, first, last)``, or None when no
        row has that key."""
        if not 0 <= first < self._code_base:
            return None
        code = plane * self._code_base + first
        row = int(self._codes.searchsorted(code))
        if row < len(self) and self._codes[row] == code and self.last[row] == last:
            return row
        return None

    def attach_pages(self, pages: np.ndarray, axis: int) -> None:
        """Cut the rows into (plane, page) segments, given each row's
        page id (non-decreasing in row order), and take each plane's
        extent along ``axis``, the family's plane axis."""
        start = np.ones(len(pages), dtype=bool)
        start[1:] = (self.plane[1:] != self.plane[:-1]) | (pages[1:] != pages[:-1])
        self.seg_start = np.flatnonzero(start)
        self.seg_page = pages[self.seg_start]
        self.plane_seg = np.searchsorted(self.seg_start, self.offsets)
        # Every plane holds a row (a crossing line has a segment), so
        # each reduceat slice is exactly one plane's rows.
        heads = self.offsets[:-1]
        self.plane_lo = np.fmin.reduceat(self.xy[:, axis], heads)
        self.plane_hi = np.fmax.reduceat(self.xy[:, axis + 2], heads)

    def planes_meeting(self, lo: float, hi: float) -> tuple[int, int]:
        """The planes ``p0:p1`` from the first to the last whose extent
        meets ``[lo, hi]`` along the plane axis (``p0 == p1`` when none
        does, or a bound is NaN): only their rows can meet a box that
        lies within ``[lo, hi]`` on that axis."""
        meets = np.flatnonzero((self.plane_lo <= hi) & (self.plane_hi >= lo))
        if meets.size == 0:
            return 0, 0
        return int(meets[0]), int(meets[-1]) + 1

    def crossing_rows(self, planes, axis: int, pa, pb) -> list[int]:
        """The witness chain's row on each of ``planes`` (ascending
        plane indices between ``pa`` and ``pb``, which are ordered
        along ``axis``, the plane axis), picked among all of the
        plane's rows by :func:`nearest_row`: the row nearest, along
        the other horizontal axis, to where the straight segment
        ``pa``-``pb`` crosses the plane, taken at the plane's first
        row's coordinate on ``axis``.  Which chain is taken only
        decides how tight the witness is, never whether it is sound;
        the argmin over every row of the plane is the testkit's
        ``crossing_rows_reference``."""
        other = 1 - axis
        a_axis, a_other = float(pa[axis]), float(pa[other])
        # The planes lie strictly between the endpoints: a positive span.
        span = float(pb[axis]) - a_axis
        rise = float(pb[other]) - a_other
        at_axis = memoryview(self.xy[:, axis])
        lo = memoryview(self.xy[:, other])
        hi = memoryview(self.xy[:, other + 2])
        offsets = memoryview(self.offsets)
        rows = []
        for plane in planes.tolist():
            start = offsets[plane]
            cross = a_other + (at_axis[start] - a_axis) / span * rise
            rows.append(nearest_row(lo, hi, start, offsets[plane + 1], cross))
        return rows

    def segment_pages(self, p0: int, p1: int, mask=None) -> list[int]:
        """The page ids of the segments of planes ``p0:p1`` holding a
        row of ``mask`` (one bool per row of those planes, rows
        ``offsets[p0]:offsets[p1]``; None keeps every row), in row
        order: each plane's distinct pages ascending, plane after
        plane."""
        s0, s1 = self.plane_seg[p0], self.plane_seg[p1]
        pages = self.seg_page[s0:s1]
        if mask is None:
            return pages.tolist()
        heads = self.seg_start[s0:s1] - self.offsets[p0]
        return pages[np.logical_or.reduceat(mask, heads)].tolist()


def nearest_row(lo, hi, start: int, stop: int, at: float) -> int:
    """The row of ``start:stop`` nearest to ``at`` along one axis,
    given each row's extent ``lo[i]``..``hi[i]`` on it: the row whose
    miss ``max(lo[i] - at, at - hi[i])`` is least (negative inside a
    row: the row ``at`` lies deepest in), ties to the lowest row.

    Where ``lo`` and ``hi`` both ascend over the rows, as a crossing
    line's chunks do along the line, the miss is its high side
    ``at - hi[i]``, which descends, up to the first row where the low
    side ``lo[i] - at`` exceeds it, and that low side, which ascends,
    from there on.  So that row is found by bisection, and the least
    miss is the row's or the run of rows tied with the one before it:
    the argmin over every row, to the tie, in ``O(log n)`` reads.
    Where the rows do not ascend it still returns a row of
    ``start:stop``."""
    low, high = start, stop
    while low < high:
        mid = (low + high) // 2
        if lo[mid] - at > at - hi[mid]:
            high = mid
        else:
            low = mid + 1
    if low == start:
        return low
    row = low - 1
    miss = at - hi[row]
    if low < stop and lo[low] - at < miss:
        return low
    while row > start and at - hi[row - 1] == miss:
        row -= 1
    return row


def build_sdn_families(lines: list[Polyline], resolutions) -> list[SdnFamily]:
    """Chunk every crossing line of one plane family at each
    resolution, column-wise; one :class:`SdnFamily` per resolution.

    Chunk boundaries are those of
    :func:`repro.geometry.polyline.simplify_with_enclosure`: a line of
    ``n`` segments keeps ``max(1, min(n, round(n * r)))`` chunks, chunk
    ``k`` covering segments ``k * n // m`` to ``(k + 1) * n // m - 1``.
    Each chunk's MBR is the min / max over its segments' MBRs
    (``np.minimum.reduceat`` / ``np.maximum.reduceat``), which are
    computed once per line and shared by every resolution.  Min and
    max are exact, so the boxes equal ``BoundingBox.of_points`` over
    the chunk's points bit for bit.
    """
    counts = np.array([line.num_segments for line in lines], dtype=np.int64)
    seg_base = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=seg_base[1:])
    if lines:
        points = [line.points for line in lines]
        seg_lo = np.concatenate([np.minimum(p[:-1], p[1:]) for p in points])
        seg_hi = np.concatenate([np.maximum(p[:-1], p[1:]) for p in points])
    families = []
    for res in resolutions:
        # int(round(n * r)) per line: IEEE product, round half to even.
        nchunks = np.clip(np.rint(counts * res).astype(np.int64), 1, counts)
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(nchunks, out=offsets[1:])
        plane = np.repeat(np.arange(counts.size, dtype=np.int64), nchunks)
        k = np.arange(offsets[-1], dtype=np.int64) - offsets[plane]
        n, m = counts[plane], nchunks[plane]
        first = k * n // m
        last = (k + 1) * n // m - 1
        if plane.size:
            starts = seg_base[plane] + first
            lo = np.minimum.reduceat(seg_lo, starts, axis=0)
            hi = np.maximum.reduceat(seg_hi, starts, axis=0)
        else:
            lo = hi = np.empty((0, 3))
        families.append(SdnFamily(lo, hi, offsets, plane, first, last))
    return families


def _point_to_boxes(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    gap = np.maximum(lo - p, 0.0)
    gap = np.maximum(gap, p - hi)
    return np.sqrt(np.sum(gap * gap, axis=1))


def _box_distances(lo1, hi1, lo2, hi2, shape) -> np.ndarray:
    """Min distances between boxes ``1`` and boxes ``2``, broadcast to
    ``shape``.

    The corners are coordinate-major: ``lo1[c]`` holds coordinate
    ``c`` of the first boxes' low corners, shaped to broadcast against
    the others.  Per coordinate the gap is ``max(max(lo2 - hi1, 0),
    lo1 - hi2)``; the squares are summed x, then y, then z, and the
    square root taken.  This is the one float recipe of an MSDN hop:
    the DP's hop matrices (:func:`_hop_totals`) price hops with it, on
    ``shape`` arrays filled by in-place ufuncs, and the witness chain
    (:func:`chain_length`) with its scalar twin :func:`_box_distance`.
    """
    acc = np.empty(shape)
    gap = np.empty(shape)
    other = np.empty(shape)
    for c in range(3):
        out = acc if c == 0 else gap
        np.subtract(lo2[c], hi1[c], out=out)
        np.maximum(out, 0.0, out=out)
        np.subtract(lo1[c], hi2[c], out=other)
        np.maximum(out, other, out=out)
        np.multiply(out, out, out=out)
        if c:
            np.add(acc, gap, out=acc)
    np.sqrt(acc, out=acc)
    return acc


def _box_distance(lo1, hi1, lo2, hi2) -> float:
    """The min distance between box ``1`` and box ``2`` (corners as
    sequences of three floats), in Python floats: the scalar twin of
    :func:`_box_distances`, operation for operation.  Each ``max`` is
    taken as ``np.maximum`` takes it, the first operand unless the
    second is greater or NaN, so a NaN gap gives NaN; the squares are
    multiplied, not raised, so an overflow gives infinity as the
    arrays do; then summed x, then y, then z, and the square root
    taken."""
    acc = 0.0  # 0.0 + the first square is that square, never -0.0
    for low1, high1, low2, high2 in zip(lo1, hi1, lo2, hi2):
        gap = low2 - high1
        if gap < 0.0:
            gap = 0.0
        other = low1 - high2
        if not (gap >= other or gap != gap):
            gap = other
        acc += gap * gap
    return math.sqrt(acc)


def _hop_totals(
    dist: np.ndarray,
    lo1: np.ndarray,
    hi1: np.ndarray,
    lo2: np.ndarray,
    hi2: np.ndarray,
) -> np.ndarray:
    """One min-plus hop: the ``(m2, m1)`` matrix whose entry
    ``[j, i]`` is ``dist[i]`` plus the min distance between box ``i``
    of the upper layer and box ``j`` of the lower one.

    The matrix is built one coordinate at a time on ``(m2, m1)``
    arrays (:func:`_box_distances`), instead of on ``(m1, m2, 3)``
    temporaries reduced over their length-3 axis; every float
    operation is the broadcast formula's, then ``+ dist`` (IEEE
    addition commutes).  Rows are lower-layer boxes so the argmin over
    the upper layer runs along the contiguous axis.
    """
    acc = _box_distances(
        lo1.T,
        hi1.T,
        lo2.T[:, :, np.newaxis],
        hi2.T[:, :, np.newaxis],
        (lo2.shape[0], lo1.shape[0]),
    )
    np.add(acc, dist, out=acc)
    return acc


def lower_bound_via_planes_arrays(
    point_a,
    point_b,
    layer_boxes: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[float, list[int]]:
    """Monotone-chain lower bound between two 3D points.

    ``layer_boxes`` holds the chunk MBRs of each selected plane as
    ``(lo, hi)`` row arrays, ordered from the plane nearest ``a`` to
    the plane nearest ``b``.  Empty layers must be removed by the
    caller (dropping a plane is safe).

    Any surface path crosses the planes *in order* (each plane
    separates ``a`` from the next), so its first-crossing points form
    a monotone chain whose consecutive straight-line distances are
    bounded below by min-MBR distances.  The minimum over all chains
    is computed as a min-plus dynamic program, vectorized layer by
    layer, which is both tighter than a free Dijkstra over the same
    graph (zigzags are excluded) and fast for dense layers.  Each hop
    matrix is computed on the given (kept) boxes only: an entry
    depends on nothing but its own row and column boxes.

    Returns ``(bound, picks)``: the bound is clamped from below by the
    straight-line distance, which is always itself a valid lower
    bound; ``picks`` is the backtracked chain, one *row index per
    layer* into the given arrays, for the caller to map back to chunk
    keys (the dummy-lb corridor).  Ties pick the lowest row index.
    The broadcast oracle
    :func:`repro.testkit.reference.lower_bound_via_planes_broadcast`
    must agree bit for bit.
    """
    pa = np.asarray(point_a, dtype=float)
    pb = np.asarray(point_b, dtype=float)
    euclid = float(np.linalg.norm(pa - pb))
    if not layer_boxes:
        return euclid, []
    if any(lo.shape[0] == 0 for lo, _ in layer_boxes):
        raise GeometryError("empty chunk layer; caller must drop empty planes")

    lo0, hi0 = layer_boxes[0]
    dist = _point_to_boxes(pa, lo0, hi0)
    choices: list[np.ndarray] = []
    for (lo_u, hi_u), (lo_l, hi_l) in zip(layer_boxes, layer_boxes[1:]):
        total = _hop_totals(dist, lo_u, hi_u, lo_l, hi_l)
        picks = np.argmin(total, axis=1)
        choices.append(picks)
        dist = total[np.arange(total.shape[0]), picks]
    lo_n, hi_n = layer_boxes[-1]
    final = dist + _point_to_boxes(pb, lo_n, hi_n)
    best = int(np.argmin(final))
    bound = float(final[best])

    indices = [best]
    for picks in reversed(choices):
        indices.append(int(picks[indices[-1]]))
    indices.reverse()
    return max(bound, euclid), indices


def chain_length(pa, pb, lo, hi, euclid: float) -> float:
    """The length of the chain from ``pa`` through boxes ``lo[i]`` /
    ``hi[i]``, one per layer in layer order, to ``pb``, clamped below
    by ``euclid``, the straight line as the DP takes it, as the DP
    clamps its bound.  Points and corners are sequences of three
    floats.

    The chain is priced in Python floats with the DP's recipe in the
    DP's order (:func:`_box_distance`, operation for operation what
    the DP's kernels compute): the distance from ``a`` to the first
    box (the end terms are the point box ``(p, p)``, which is
    :func:`_point_to_boxes`), each hop added to the running prefix in
    layer order, then the last box's distance to ``b``.  When the
    chain is one of the DP's (a box from each of its layers) it is
    priced to the bit as the DP prices it; every DP label is a min
    over chains that include it, and IEEE addition is monotone, so
    the DP's bound can never exceed this value; a NaN compares false
    either way.  O(layers) hops, against the DP's one matrix per pair
    of layers.
    """
    if not lo:
        return euclid
    total = _box_distance(pa, pa, lo[0], hi[0])
    for i in range(1, len(lo)):
        total += _box_distance(lo[i - 1], hi[i - 1], lo[i], hi[i])
    return max(total + _box_distance(pb, pb, lo[-1], hi[-1]), euclid)
