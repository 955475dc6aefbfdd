"""Network k-NN baselines from the paper's related work (§2.1).

The paper positions sk-NN against *network* k-NN processing on road
networks and explains why those techniques don't transfer: a surface
mesh "is a much more complex network than road networks", and network
distance ``dN`` (along edges) systematically overestimates the true
surface distance ``dS`` (paths may cut across faces).  To make that
argument concrete, this module implements the two classic algorithms
over the mesh edge network:

* **INE** — Incremental Network Expansion [Papadias et al., VLDB'03]:
  one Dijkstra wavefront from the query; objects are reported in the
  order the expansion settles their vertices.
* **IER** — Incremental Euclidean Restriction [ibid., §2.1's
  description]: fetch candidates in Euclidean order via the R-tree's
  distance-browsing iterator, compute their network distances, and
  stop once the next Euclidean distance exceeds the current k-th
  network distance.

Both return ``dN``-ranked answers.  ``benchmarks/bench_related_work``
measures how often that ranking disagrees with true surface k-NN —
the quantified version of the paper's motivation.
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.geodesic.csr import dijkstra_csr_with_parents, edge_network_csr
from repro.spatial.rtree import RTree


def ine_knn(mesh, objects, query_vertex: int, k: int) -> list[tuple[int, float]]:
    """Incremental network expansion over the mesh edge network.

    Returns ``[(object_id, dN), ...]`` ascending by network distance.
    """
    if k < 1:
        raise QueryError("k must be >= 1")
    if k > len(objects):
        raise QueryError(f"k={k} exceeds {len(objects)} objects")
    vertex_to_objects: dict[int, list[int]] = {}
    for obj in range(len(objects)):
        vertex_to_objects.setdefault(objects.vertex_of(obj), []).append(obj)
    # Expand until k objects are settled — the paper's
    # expansion-until-found behaviour, on flat CSR arrays.
    import heapq

    indptr, indices, weights = edge_network_csr(mesh).lists()
    visited = bytearray(mesh.num_vertices)
    heap: list[tuple[float, int]] = [(0.0, query_vertex)]
    found: list[tuple[int, float]] = []
    while heap and len(found) < k:
        d, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = 1
        for obj in vertex_to_objects.get(u, ()):
            found.append((obj, d))
        for e in range(indptr[u], indptr[u + 1]):
            v = indices[e]
            if not visited[v]:
                heapq.heappush(heap, (d + weights[e], v))
    found.sort(key=lambda t: (t[1], t[0]))
    return found[:k]


def ier_knn(mesh, objects, query_vertex: int, k: int) -> list[tuple[int, float]]:
    """Incremental Euclidean restriction (the paper's §2.1 recipe).

    "A k-NN query is performed using the Euclidean distance and the k
    retrieved points are sorted ... by their network distances ...
    this process continues until there is no such object p' can be
    found."
    """
    if k < 1:
        raise QueryError("k must be >= 1")
    if k > len(objects):
        raise QueryError(f"k={k} exceeds {len(objects)} objects")
    q_pos = mesh.vertices[query_vertex]
    tree = RTree(max_entries=16)
    for obj in range(len(objects)):
        tree.insert_point(objects.position_of(obj)[:2], obj)

    # One growing single-source search would be cheating in IER's
    # favour; the algorithm recomputes per candidate (bounded by the
    # current kth network distance, its own optimisation).  The CSR
    # form is built once and reused by every per-candidate search.
    csr = edge_network_csr(mesh)
    best: list[tuple[float, int]] = []  # (dN, obj) heap-ish list

    def network_distance(obj: int, cap: float | None) -> float | None:
        target = objects.vertex_of(obj)
        dist, _parent = dijkstra_csr_with_parents(
            csr, query_vertex, targets={target}, max_dist=cap
        )
        return dist.get(target)

    browser = tree.nearest_iter(q_pos[:2])
    for euclid_xy, obj in browser:
        kth = best[k - 1][0] if len(best) >= k else float("inf")
        if len(best) >= k and euclid_xy > kth:
            break  # dN >= dE >= dE_xy > kth for everything farther
        dn = network_distance(obj, None if kth == float("inf") else kth * 1.0000001)
        if dn is None:
            continue
        best.append((dn, obj))
        best.sort()
        del best[k * 2 :]
    return [(obj, dn) for dn, obj in best[:k]]
