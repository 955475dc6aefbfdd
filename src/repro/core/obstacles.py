"""Obstacle-constrained surface k-NN — the paper's future-work
extension (§6: "sk-NN query with obstacle constraints, which can be
found in many real-life sk-NN applications, such as energy
consumption and vehicle stability considerations for rovers, and
general traversability constraints").

Implementation: surface distances are computed on the Steiner pathnet
with untraversable faces removed, so every reported distance is the
length of a genuine path avoiding the obstacles.  A single Dijkstra
from the query serves all candidates.  Helpers derive forbidden face
sets from slope limits — the rover-stability constraint the paper
names.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.geodesic.csr import graph_dijkstra_with_parents
from repro.geodesic.pathnet import build_pathnet, vertex_key


def steep_faces(mesh, max_slope_deg: float) -> set[int]:
    """Face ids whose slope exceeds ``max_slope_deg`` degrees."""
    if not 0.0 < max_slope_deg < 90.0:
        raise QueryError("max_slope_deg must be in (0, 90)")
    v = mesh.vertices
    f = mesh.faces
    normal = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    length = np.sqrt(np.sum(normal * normal, axis=1))
    length[length == 0.0] = 1.0
    cos_slope = np.abs(normal[:, 2]) / length
    slopes = np.degrees(np.arccos(np.clip(cos_slope, -1.0, 1.0)))
    return {int(fi) for fi in np.nonzero(slopes > max_slope_deg)[0]}


def region_faces(mesh, region) -> set[int]:
    """Face ids whose xy-MBR intersects a forbidden 2D region."""
    return {int(fi) for fi in mesh.submesh_faces(region)}


def obstacle_knn(
    mesh,
    objects,
    query_vertex: int,
    k: int,
    forbidden_faces,
    steiner_per_edge: int = 1,
) -> list[tuple[int, float]]:
    """The k nearest objects by obstacle-avoiding surface distance.

    Returns ``[(object_id, distance), ...]`` ascending; objects
    unreachable without crossing an obstacle are excluded, so fewer
    than k entries may come back (an impassable ring around the query
    yields an empty result rather than an invalid one).
    """
    if k < 1:
        raise QueryError("k must be >= 1")
    graph = build_pathnet(
        mesh, steiner_per_edge=steiner_per_edge, forbidden_faces=forbidden_faces
    )
    src_key = vertex_key(query_vertex)
    if src_key not in graph:
        return []  # the query itself sits inside the obstacle region
    targets = {}
    for obj in range(len(objects)):
        key = vertex_key(objects.vertex_of(obj))
        if key in graph:
            targets.setdefault(graph.node_id(key), []).append(obj)
    dist, _parent = graph_dijkstra_with_parents(
        graph, graph.node_id(src_key), targets=set(targets)
    )
    reached = [
        (obj, d)
        for node, d in dist.items()
        if node in targets
        for obj in targets[node]
    ]
    reached.sort(key=lambda t: (t[1], t[0]))
    return reached[:k]
