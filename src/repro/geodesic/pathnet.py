"""Pathnets: Steiner-point subdivisions of a surface mesh.

Approximate surface-shortest-path algorithms (Kanai & Suzuki;
Varadarajan & Agarwal) insert *Steiner points* into mesh edges and
connect all points sharing a face, opening passageways across face
interiors that the bare edge network lacks.  Because every added
segment lies inside a planar face, pathnet network distances are
always lengths of genuine surface paths — i.e. valid upper bounds of
``dS`` — and they converge to ``dS`` as more Steiner points are used.

The paper's DMTM uses a pathnet with one Steiner point per edge as
its "200 % resolution" level, where it treats ``dN`` as ``dS``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeodesicError
from repro.geodesic.csr import astar_csr, graph_dijkstra_with_parents, tree_path
from repro.geodesic.frontier import build_pathnet_arrays
from repro.geodesic.graph import KeyedGraph

# Node keys: ("v", vertex_id) for original vertices,
#            ("s", edge_id, j) for the j-th Steiner point of an edge.


def vertex_key(vid: int) -> tuple:
    return ("v", int(vid))


def steiner_key(edge_id: int, j: int) -> tuple:
    return ("s", int(edge_id), int(j))


def build_pathnet(
    mesh,
    steiner_per_edge: int = 1,
    faces: np.ndarray | None = None,
    forbidden_faces=None,
) -> KeyedGraph:
    """Build the pathnet graph for a mesh (or a subset of its faces).

    Every pair of points sharing a face is linked by a straight
    segment inside that face.  ``faces`` restricts construction to a
    corridor — the selective-refinement trick of Kanai & Suzuki and
    the ROI restriction of MR3.  ``forbidden_faces`` (a set of face
    ids) removes untraversable faces — the obstacle-constrained
    extension the paper lists as future work (steep slopes, water,
    no-go zones): no passageway is created through them, so every
    returned distance is realised by a path avoiding them.

    The graph is built as flat arrays
    (:func:`repro.geodesic.frontier.build_pathnet_arrays`), with node
    positions for the A* heuristic.  Raises
    :class:`~repro.errors.GeodesicError` on a degenerate face.
    """
    codes, _positions, csr = build_pathnet_arrays(
        mesh, steiner_per_edge, faces, forbidden_faces
    )
    num_vertices = int(mesh.vertices.shape[0])
    spe = int(steiner_per_edge)
    keys = []
    for code in codes.tolist():
        if code < num_vertices:
            keys.append(("v", code))
        else:
            sc = code - num_vertices
            keys.append(("s", sc // spe, sc % spe + 1))
    return KeyedGraph(keys, csr)


def pathnet_distance(
    mesh,
    source: int,
    target: int,
    steiner_per_edge: int = 1,
    faces: np.ndarray | None = None,
) -> float:
    """Approximate ``dS`` between two vertices via pathnet search —
    A* with the straight-line heuristic (the distance is all that is
    returned, so the goal-directed search is safe).
    """
    graph = build_pathnet(mesh, steiner_per_edge, faces)
    src_key = vertex_key(source)
    dst_key = vertex_key(target)
    if src_key not in graph or dst_key not in graph:
        raise GeodesicError("source or target vertex missing from pathnet region")
    s = graph.node_id(src_key)
    t = graph.node_id(dst_key)
    d = astar_csr(graph.csr, s, t)
    if d is None:
        raise GeodesicError(f"no pathnet route from {source} to {target}")
    return d


def pathnet_shortest_path(
    mesh,
    source: int,
    target: int,
    steiner_per_edge: int = 1,
    faces: np.ndarray | None = None,
) -> tuple[float, list[tuple]]:
    """Distance plus the node-key sequence of the pathnet route."""
    graph = build_pathnet(mesh, steiner_per_edge, faces)
    src_key = vertex_key(source)
    dst_key = vertex_key(target)
    if src_key not in graph or dst_key not in graph:
        raise GeodesicError("source or target vertex missing from pathnet region")
    s = graph.node_id(src_key)
    t = graph.node_id(dst_key)
    dist, parent = graph_dijkstra_with_parents(graph, s, targets={t})
    if t not in dist:
        raise GeodesicError(f"no path from {s} to {t}")
    return dist[t], [graph.key_of(n) for n in tree_path(parent, t)]
