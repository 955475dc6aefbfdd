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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError
from repro.geometry.polyline import Polyline, simplify_with_enclosure
from repro.geometry.primitives import BoundingBox

_CHUNK_STRUCT = struct.Struct("<BIdHII6d")


@dataclass(frozen=True)
class SdnChunk:
    """One SDN node: a run of crossing-line segments with joint MBR."""

    axis: int
    plane_index: int
    plane_value: float
    resolution: float
    first: int
    last: int
    mbr: BoundingBox  # 3D

    @property
    def key(self) -> tuple:
        return ("c", self.axis, self.plane_index, self.first, self.last)

    def encode(self) -> bytes:
        return _CHUNK_STRUCT.pack(
            self.axis,
            self.plane_index,
            self.plane_value,
            int(round(self.resolution * 1000)),
            self.first,
            self.last,
            *self.mbr.lo,
            *self.mbr.hi,
        )

    @classmethod
    def decode(cls, blob: bytes) -> "SdnChunk":
        axis, plane_index, plane_value, res_pm, first, last, *coords = (
            _CHUNK_STRUCT.unpack(blob)
        )
        return cls(
            axis=axis,
            plane_index=plane_index,
            plane_value=plane_value,
            resolution=res_pm / 1000.0,
            first=first,
            last=last,
            mbr=BoundingBox(tuple(coords[:3]), tuple(coords[3:])),
        )


def build_sdn_chunks(
    line: Polyline,
    axis: int,
    plane_index: int,
    plane_value: float,
    resolution: float,
) -> list[SdnChunk]:
    """Chunk one crossing line at the given resolution.

    The chunk MBRs enclose the original segment MBRs by construction
    (see :func:`repro.geometry.polyline.simplify_with_enclosure`).
    """
    chunks = simplify_with_enclosure(line, resolution)
    return [
        SdnChunk(
            axis=axis,
            plane_index=plane_index,
            plane_value=plane_value,
            resolution=resolution,
            first=c.first,
            last=c.last,
            mbr=c.mbr,
        )
        for c in chunks
    ]


def _point_to_boxes(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    gap = np.maximum(lo - p, 0.0)
    gap = np.maximum(gap, p - hi)
    return np.sqrt(np.sum(gap * gap, axis=1))


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
    arrays with in-place ufuncs, instead of on ``(m1, m2, 3)``
    temporaries reduced over their length-3 axis.  Every float
    operation is the broadcast formula's: per coordinate
    ``max(max(lo2 - hi1, 0), lo1 - hi2)``, the squares summed x, then
    y, then z, the square root, then ``+ dist`` (IEEE addition
    commutes).  Rows are lower-layer boxes so the argmin over the
    upper layer runs along the contiguous axis.
    """
    m2, m1 = lo2.shape[0], lo1.shape[0]
    acc = np.empty((m2, m1))
    gap = np.empty((m2, m1))
    other = np.empty((m2, m1))
    for c in range(3):
        out = acc if c == 0 else gap
        np.subtract(lo2[:, c, np.newaxis], hi1[:, c], out=out)
        np.maximum(out, 0.0, out=out)
        np.subtract(lo1[:, c], hi2[:, c, np.newaxis], out=other)
        np.maximum(out, other, out=out)
        np.multiply(out, out, out=out)
        if c:
            np.add(acc, gap, out=acc)
    np.sqrt(acc, out=acc)
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
