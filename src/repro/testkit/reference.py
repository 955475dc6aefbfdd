"""Reference implementations kept as differential oracles.

The engine builds pathnets, DMTM cut networks and MSDN lower bounds
with array code.  The straightforward object-walk versions it
replaced live here, for tests and the testkit ``oracle`` leg to call
directly: each must agree with its production twin exactly — same
graph node for node and edge for edge, same bound value, path keys
and chunk count, same pages read in the same order.

* :func:`build_pathnet_reference` — the per-face Python loop behind
  :func:`repro.geodesic.pathnet.build_pathnet`;
* :func:`dmtm_cut_reference` — one ``add_edge`` per recorded cut edge
  and record-id page charging (:func:`dmtm_touch_nodes_reference`,
  :func:`dmtm_touch_faces_reference`), the twin of
  :meth:`repro.multires.dmtm.DMTM.extract_network` at cut levels;
* :func:`dmtm_upper_bounds_multi_reference` — one search per anchor,
  the twin of the single multi-source search behind
  :meth:`~repro.multires.dmtm.DMTM.upper_bounds_multi`;
* :func:`lower_bound_via_planes_broadcast` — the min-plus DP with
  broadcast ``(m1, m2, 3)`` hop matrices (:func:`_boxes_to_boxes`),
  the twin of :func:`repro.msdn.sdn.lower_bound_via_planes_arrays`
  and its per-coordinate hop kernel, and
  :func:`lower_bound_via_planes`, the same DP over chunk objects;
* :func:`msdn_lower_bound_reference` and
  :func:`msdn_touch_region_reference` — chunk-object filtering
  (:func:`msdn_layers_reference`), that DP and record-id page
  charging, the twins of
  :meth:`repro.msdn.msdn.MSDN.lower_bound` and
  :meth:`~repro.msdn.msdn.MSDN.touch_region`.

The dict search kernels (:mod:`repro.geodesic.dijkstra`) complete the
set; they already live as ``dijkstra_reference`` and
``dijkstra_with_parents_reference``.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from repro.errors import GeometryError
from repro.geodesic.graph import KeyedGraph
from repro.geodesic.pathnet import steiner_key, vertex_key
from repro.msdn.msdn import LowerBoundResult, _box_mask, _roi_list
from repro.msdn.sdn import SdnChunk, _point_to_boxes
from repro.multires.dmtm import NetworkView


def _edge_point_keys(mesh, edge_id: int, steiner_per_edge: int):
    """Keys and 3D positions of all points on an edge, endpoints first."""
    u, w = mesh.edge_vertices[edge_id]
    pu = mesh.vertices[u]
    pw = mesh.vertices[w]
    items = [(vertex_key(u), pu), (vertex_key(w), pw)]
    for j in range(1, steiner_per_edge + 1):
        t = j / (steiner_per_edge + 1)
        items.append((steiner_key(edge_id, j), pu + t * (pw - pu)))
    return items


def _segment_length(pa, pb) -> float:
    """Straight-segment weight, composed as ``(dx² + dy²) + dz²``
    under the radical — the float expression the array builder
    evaluates columnwise."""
    dx = float(pa[0]) - float(pb[0])
    dy = float(pa[1]) - float(pb[1])
    dz = float(pa[2]) - float(pb[2])
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def build_pathnet_reference(
    mesh,
    steiner_per_edge: int = 1,
    faces=None,
    forbidden_faces=None,
) -> KeyedGraph:
    """The pathnet by a per-face loop: every pair of points sharing a
    face linked by one ``add_edge``.  Unlike the array builder it
    tolerates degenerate faces (repeated points are deduplicated)."""
    forbidden = frozenset(int(f) for f in forbidden_faces or ())
    graph = KeyedGraph()
    face_ids = range(mesh.num_faces) if faces is None else faces
    for fi in face_ids:
        fi = int(fi)
        if fi in forbidden:
            continue
        points: list[tuple[tuple, np.ndarray]] = []
        seen: set[tuple] = set()
        for slot in range(3):
            edge_id = int(mesh.face_edges[fi, slot])
            for key, pos in _edge_point_keys(mesh, edge_id, steiner_per_edge):
                if key not in seen:
                    seen.add(key)
                    points.append((key, pos))
                    graph.add_node(key, position=pos)
        for (ka, pa), (kb, pb) in combinations(points, 2):
            graph.add_edge(ka, kb, _segment_length(pa, pb))
    return graph


def dmtm_touch_nodes_reference(dmtm, node_ids) -> None:
    """Charge DMTM node pages by record id (the node id)."""
    if dmtm._node_store is not None:
        dmtm._node_store.touch(int(n) for n in node_ids)


def dmtm_touch_faces_reference(dmtm, face_ids) -> None:
    """Charge DMTM face pages by record id (the face id)."""
    if dmtm._face_store is not None:
        dmtm._face_store.touch(int(fi) for fi in face_ids)


def dmtm_cut_reference(dmtm, resolution: float, roi=None, charge_io: bool = True):
    """Cut-level network by one ``add_edge`` per
    :meth:`~repro.multires.ddm.DistanceDirectMesh.cut_edges` edge,
    charging pages by record id."""
    roi = _roi_list(roi)
    step = dmtm.ddm.step_for_fraction(resolution)
    cut = [int(n) for n in dmtm.ddm.cut_node_ids(step, roi)]
    if charge_io:
        dmtm_touch_nodes_reference(dmtm, cut)
    graph = KeyedGraph()
    for node_id in cut:
        graph.add_node(("n", node_id), position=dmtm.ddm.node_position(node_id))
    for u, w, d in dmtm.ddm.cut_edges(cut):
        graph.add_edge(("n", u), ("n", w), d)
    return NetworkView(
        graph=graph, resolution=resolution, records_used=len(cut), step=step
    )


def dmtm_upper_bounds_multi_reference(dmtm, anchors, target_vertices, network):
    """:meth:`DMTM.upper_bounds_multi` as one single-source search per
    anchor, keeping the strict minimum (first-listed anchor wins
    ties)."""
    best: dict[int, tuple[float, list]] = {}
    for anchor_vertex, offset in anchors:
        results = dmtm.upper_bounds_from(anchor_vertex, target_vertices, network)
        for vertex, result in results.items():
            if result is None:
                continue
            value = offset + result.value
            if vertex not in best or value < best[vertex][0]:
                best[vertex] = (value, result.path_keys)
    return best


def _layer_boxes(layer: list[SdnChunk]) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([c.mbr.lo for c in layer], dtype=float)
    hi = np.array([c.mbr.hi for c in layer], dtype=float)
    return lo, hi


def _boxes_to_boxes(
    lo1: np.ndarray, hi1: np.ndarray, lo2: np.ndarray, hi2: np.ndarray
) -> np.ndarray:
    """(m1, m2) matrix of min distances between two box families."""
    gap = np.maximum(lo2[np.newaxis, :, :] - hi1[:, np.newaxis, :], 0.0)
    gap = np.maximum(gap, lo1[:, np.newaxis, :] - hi2[np.newaxis, :, :])
    return np.sqrt(np.sum(gap * gap, axis=2))


def lower_bound_via_planes_broadcast(
    point_a,
    point_b,
    layer_boxes: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[float, list[int]]:
    """:func:`repro.msdn.sdn.lower_bound_via_planes_arrays` with each
    hop one broadcast ``(m1, m2)`` matrix (:func:`_boxes_to_boxes`),
    on the same ``(lo, hi)`` row-array input: the oracle for the
    per-coordinate hop kernel.  Returns ``(bound, row_per_layer)``."""
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


def lower_bound_via_planes(
    point_a,
    point_b,
    chunk_layers: list[list[SdnChunk]],
) -> tuple[float, list[tuple]]:
    """:func:`lower_bound_via_planes_broadcast` over chunk objects.

    ``chunk_layers`` holds the (non-empty) chunk lists of the selected
    planes, nearest ``a`` first.  Returns ``(bound, path_chunk_keys)``
    with the bound clamped below by the straight-line distance.
    """
    value, indices = lower_bound_via_planes_broadcast(
        point_a, point_b, [_layer_boxes(layer) for layer in chunk_layers]
    )
    return value, [layer[row].key for layer, row in zip(chunk_layers, indices)]


def _touch_chunks(msdn, chunks, resolution: float) -> None:
    """Record-id page charging for a list of chunks."""
    if msdn._store is None or not chunks:
        return
    rk = round(resolution * 1000)
    msdn._store.touch(
        [("chunk", c.axis, rk, c.plane_index, c.first) for c in chunks]
    )


def msdn_layers_reference(
    msdn, point_a, point_b, resolution: float, roi=None, corridor=None
) -> tuple:
    """The chunk layers :meth:`MSDN.lower_bound` hands its DP, by
    walking chunk objects: each selected plane's chunks inside ``roi``
    and ``corridor``, empty layers dropped.  Returns
    ``(pa, pb, resolution, layers)`` with the endpoints ordered along
    the plane axis and the resolution snapped."""
    pa = np.asarray(point_a, dtype=float)
    pb = np.asarray(point_b, dtype=float)
    resolution = msdn.nearest_resolution(resolution)
    roi = _roi_list(roi)
    corridor = _roi_list(corridor)
    axis = msdn.choose_axis(pa, pb)
    lo = min(pa[axis], pb[axis])
    hi = max(pa[axis], pb[axis])
    if pa[axis] > pb[axis]:
        pa, pb = pb, pa
    per_plane = msdn._chunks[(axis, resolution)]
    bounds = msdn._chunk_xy[(axis, resolution)]
    layers = []
    for pi in msdn._planes_between(axis, lo, hi, msdn.plane_stride(resolution)):
        layer, xy = per_plane[pi], bounds[pi]
        if roi is None and corridor is None:
            keep = layer
        else:
            mask = np.ones(xy.shape[0], dtype=bool)
            if roi is not None:
                mask &= _box_mask(xy, roi)
            if corridor is not None:
                mask &= _box_mask(xy, corridor)
            keep = [layer[j] for j in np.nonzero(mask)[0]]
        if keep:
            layers.append(keep)
    return pa, pb, resolution, layers


def msdn_lower_bound_reference(
    msdn,
    point_a,
    point_b,
    resolution: float,
    roi=None,
    corridor=None,
    charge_io: bool = True,
) -> LowerBoundResult:
    """:meth:`MSDN.lower_bound` by walking chunk objects: filter each
    selected plane's chunks (:func:`msdn_layers_reference`), charge
    their pages by record id and run the object-input DP."""
    pa, pb, resolution, layers = msdn_layers_reference(
        msdn, point_a, point_b, resolution, roi, corridor
    )
    if charge_io:
        for layer in layers:
            _touch_chunks(msdn, layer, resolution)
    value, path_keys = lower_bound_via_planes(pa, pb, layers)
    return LowerBoundResult(
        value=value,
        path_keys=path_keys,
        resolution=resolution,
        chunks_used=sum(len(layer) for layer in layers),
    )


def msdn_touch_region_reference(msdn, resolution: float, roi=None, axes=(0, 1)) -> None:
    """:meth:`MSDN.touch_region` by record id: each plane's chunks
    inside ``roi``, charged plane by plane."""
    resolution = msdn.nearest_resolution(resolution)
    roi = _roi_list(roi)
    for axis in axes:
        layers = msdn._chunks[(axis, resolution)]
        bounds = msdn._chunk_xy[(axis, resolution)]
        for layer, xy in zip(layers, bounds):
            if roi is not None:
                layer = [layer[j] for j in np.nonzero(_box_mask(xy, roi))[0]]
            _touch_chunks(msdn, layer, resolution)
