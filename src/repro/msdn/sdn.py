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


def _layer_boxes(layer: list[SdnChunk]) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([c.mbr.lo for c in layer], dtype=float)
    hi = np.array([c.mbr.hi for c in layer], dtype=float)
    return lo, hi


def _point_to_boxes(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    gap = np.maximum(lo - p, 0.0)
    gap = np.maximum(gap, p - hi)
    return np.sqrt(np.sum(gap * gap, axis=1))


def _boxes_to_boxes(
    lo1: np.ndarray, hi1: np.ndarray, lo2: np.ndarray, hi2: np.ndarray
) -> np.ndarray:
    """(m1, m2) matrix of min distances between two box families."""
    gap = np.maximum(lo2[np.newaxis, :, :] - hi1[:, np.newaxis, :], 0.0)
    gap = np.maximum(gap, lo1[:, np.newaxis, :] - hi2[np.newaxis, :, :])
    return np.sqrt(np.sum(gap * gap, axis=2))


def lower_bound_via_planes(
    point_a,
    point_b,
    chunk_layers: list[list[SdnChunk]],
) -> tuple[float, list[tuple]]:
    """Monotone-chain lower bound between two 3D points.

    ``chunk_layers`` holds the chunks of each selected plane, ordered
    from the plane nearest ``a`` to the plane nearest ``b``.  Empty
    layers must be removed by the caller (dropping a plane is safe).

    Any surface path crosses the planes *in order* (each plane
    separates ``a`` from the next), so its first-crossing points form
    a monotone chain whose consecutive straight-line distances are
    bounded below by min-MBR distances.  The minimum over all chains
    is computed as a min-plus dynamic program, vectorized layer by
    layer, which is both tighter than a free Dijkstra over the same
    graph (zigzags are excluded) and fast for dense layers.

    Returns ``(bound, path_chunk_keys)``; the bound is clamped from
    below by the straight-line distance, which is always itself a
    valid lower bound.
    """
    pa = np.asarray(point_a, dtype=float)
    pb = np.asarray(point_b, dtype=float)
    euclid = float(np.linalg.norm(pa - pb))
    if not chunk_layers:
        return euclid, []
    if any(not layer for layer in chunk_layers):
        raise GeometryError("empty chunk layer; caller must drop empty planes")

    boxes = [_layer_boxes(layer) for layer in chunk_layers]
    lo0, hi0 = boxes[0]
    dist = _point_to_boxes(pa, lo0, hi0)
    choices: list[np.ndarray] = []
    for (lo_u, hi_u), (lo_l, hi_l) in zip(boxes, boxes[1:]):
        hop = _boxes_to_boxes(lo_u, hi_u, lo_l, hi_l)
        total = dist[:, np.newaxis] + hop
        picks = np.argmin(total, axis=0)
        choices.append(picks)
        dist = total[picks, np.arange(hop.shape[1])]
    lo_n, hi_n = boxes[-1]
    final = dist + _point_to_boxes(pb, lo_n, hi_n)
    best = int(np.argmin(final))
    bound = float(final[best])

    # Backtrack one chunk per layer for the dummy-lb corridor.
    indices = [best]
    for picks in reversed(choices):
        indices.append(int(picks[indices[-1]]))
    indices.reverse()
    path_keys = [
        chunk_layers[layer][idx].key for layer, idx in enumerate(indices)
    ]
    return max(bound, euclid), path_keys


def lower_bound_via_planes_arrays(
    point_a,
    point_b,
    layer_boxes: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[float, list[int]]:
    """Array-input twin of :func:`lower_bound_via_planes`.

    ``layer_boxes`` holds each selected plane's chunk MBRs as
    ``(lo, hi)`` row arrays — pre-sliced from cached per-plane arrays
    instead of rebuilt from chunk objects per call (the MSDN hot
    path).  The min-plus dynamic program runs the exact float
    operations of the object-input twin, so the bound is
    bit-identical; the backtrack returns one *row index per layer*
    (into the given arrays) for the caller to map back to chunk keys.

    Each hop matrix is computed on the kept subsets only.  An entry
    depends on nothing but its own row and column boxes, so this
    equals slicing a matrix over whole planes, without holding one.
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
        hop = _boxes_to_boxes(lo_u, hi_u, lo_l, hi_l)
        total = dist[:, np.newaxis] + hop
        picks = np.argmin(total, axis=0)
        choices.append(picks)
        dist = total[picks, np.arange(hop.shape[1])]
    lo_n, hi_n = layer_boxes[-1]
    final = dist + _point_to_boxes(pb, lo_n, hi_n)
    best = int(np.argmin(final))
    bound = float(final[best])

    indices = [best]
    for picks in reversed(choices):
        indices.append(int(picks[indices[-1]]))
    indices.reverse()
    return max(bound, euclid), indices
