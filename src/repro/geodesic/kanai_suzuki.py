"""Kanai & Suzuki's approximate surface shortest path.

The algorithm [KS00] the paper picks as the practical alternative to
Chen & Han: start from the bare edge network, then repeatedly rebuild
a pathnet with more Steiner points — but only inside a *selectively
refined region* around the current best path — until the distance
stops improving by more than the requested accuracy.  The paper runs
it with a 3 % stopping tolerance ("we allow 3% error in shortest
surface calculation").
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeodesicError
from repro.geodesic.pathnet import (
    build_pathnet,
    vertex_key,
)
from repro.geodesic.csr import graph_dijkstra_with_parents, tree_path


def _round0_pathnet(mesh):
    """The bare edge network (pathnet with 0 Steiner points), cached
    on the mesh.

    Round 0 spans the WHOLE mesh and is identical for every (source,
    target) pair, and the polish loop calls this once per boundary
    candidate.  The graph is only searched after construction, so
    concurrent first touches at worst build it twice.
    """
    cached = getattr(mesh, "_round0_pathnet", None)
    if cached is None:
        cached = build_pathnet(mesh, steiner_per_edge=0)
        try:
            mesh._round0_pathnet = cached
        except AttributeError:
            pass  # slotted/frozen mesh: just skip the cache
    return cached


def _corridor_faces(mesh, node_keys, rings: int = 1) -> np.ndarray:
    """Faces touched by a pathnet route, expanded by ``rings`` layers
    of face adjacency — the selectively refined region."""
    faces: set[int] = set()
    for key in node_keys:
        if key[0] == "v":
            faces.update(int(f) for f in mesh.vertex_faces[key[1]])
        else:
            edge_id = key[1]
            faces.update(int(f) for f in mesh.edge_faces[edge_id])
    for _ in range(rings):
        frontier = set()
        for fi in faces:
            for g in mesh.face_neighbors[fi]:
                if g >= 0:
                    frontier.add(int(g))
        faces |= frontier
    return np.asarray(sorted(faces), dtype=np.int64)


def _route(graph, source_key, target_key) -> tuple[float, list[tuple]]:
    # The route's keys seed the next round's refined corridor, so this
    # stays on Dijkstra rather than A*: the heap and bucket kernels
    # realise the same tie-broken shortest-path tree.
    s = graph.node_id(source_key)
    t = graph.node_id(target_key)
    dist, parent = graph_dijkstra_with_parents(graph, s, targets={t})
    return _path_to(graph, dist, parent, t)


def _path_to(graph, dist, parent, t: int) -> tuple[float, list[tuple]]:
    """The distance to ``t`` and the keys of its route from the
    search's source in one search's labels and parents."""
    if t not in dist:
        raise GeodesicError("pathnet route not found")
    return dist[t], [graph.key_of(n) for n in tree_path(parent, t)]


def kanai_suzuki_distance(
    mesh,
    source: int,
    target: int,
    tolerance: float = 0.03,
    max_steiner: int = 16,
    corridor_rings: int = 1,
) -> float:
    """Approximate ``dS(source, target)`` by selective refinement.

    Parameters
    ----------
    mesh:
        The surface :class:`repro.terrain.TriangleMesh`.
    source, target:
        Vertex indices.
    tolerance:
        Stop when one refinement round improves the distance by less
        than this relative amount (paper: 0.03).
    max_steiner:
        Refinement ceiling: Steiner points per edge double each round
        (1, 2, 4, ...) up to this bound.
    corridor_rings:
        Face-adjacency rings added around the current path when
        building the refined region.

    Returns an upper bound of ``dS`` within roughly ``tolerance`` of
    the optimum on well-behaved meshes.  The one-target case of
    :func:`kanai_suzuki_distances`.
    """
    (value,) = kanai_suzuki_distances(
        mesh, source, [target], tolerance, max_steiner, corridor_rings
    )
    return value


def kanai_suzuki_distances(
    mesh,
    source: int,
    targets,
    tolerance: float = 0.03,
    max_steiner: int = 16,
    corridor_rings: int = 1,
) -> list[float]:
    """:func:`kanai_suzuki_distance` from ``source`` to each of
    ``targets``, in order, bit for bit, with round 0 searched once.

    Round 0 is one search of the cached whole-mesh edge network from
    ``source`` that runs until every target has settled.  A settled
    node's label and parent do not depend on the target set (the
    kernels stop only after the last target's pop, and a settled
    label never changes), so each target's round-0 distance and route
    are those of its own search.  The refinement rounds then run per
    target, exactly as in the one-target case; a target listed twice
    is refined once.  The source itself is at 0.0.
    """
    targets = [int(t) for t in targets]
    distinct = list(dict.fromkeys(t for t in targets if t != source))
    if not distinct:
        return [0.0] * len(targets)
    if tolerance <= 0.0:
        raise GeodesicError("tolerance must be positive")
    src_key = vertex_key(source)

    # Round 0: the bare edge network (pathnet with 0 Steiner points).
    graph = _round0_pathnet(mesh)
    s = graph.node_id(src_key)
    nodes = [graph.node_id(vertex_key(t)) for t in distinct]
    dist, parent = graph_dijkstra_with_parents(graph, s, targets=set(nodes))
    values = {source: 0.0}
    for target, node in zip(distinct, nodes):
        best, keys = _path_to(graph, dist, parent, node)
        values[target] = _refine(
            mesh, src_key, vertex_key(target), best, keys,
            tolerance, max_steiner, corridor_rings,
        )
    return [values[t] for t in targets]


def _refine(
    mesh, src_key, dst_key, best: float, keys, tolerance, max_steiner, corridor_rings
) -> float:
    """The refinement rounds after round 0's distance ``best`` and
    route ``keys``: Steiner points per edge double inside the faces
    around the current route until a round improves by less than
    ``tolerance``."""
    steiner = 1
    while steiner <= max_steiner:
        corridor = _corridor_faces(mesh, keys, rings=corridor_rings)
        graph = build_pathnet(mesh, steiner_per_edge=steiner, faces=corridor)
        if src_key not in graph or dst_key not in graph:
            break
        dist, keys = _route(graph, src_key, dst_key)
        improvement = (best - dist) / best if best > 0 else 0.0
        best = min(best, dist)
        if improvement < tolerance:
            break
        steiner *= 2
    return best
