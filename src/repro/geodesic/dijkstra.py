"""Binary-heap Dijkstra over adjacency lists.

This is the workhorse of the whole system: DMTM upper bounds, MSDN
lower bounds, pathnet distances and the EA benchmark all reduce to
single-source shortest paths on some derived network.  The
implementation is a textbook lazy-deletion heap Dijkstra with two
pruning hooks the paper relies on:

* ``targets`` — stop as soon as every requested target is settled
  (bound estimation only ever needs one or a few pairs);
* ``max_dist`` — stop when the frontier exceeds a known upper bound
  (used by the EA benchmark's early termination).
"""

from __future__ import annotations

import heapq

from repro.errors import GeodesicError
from repro.obs.context import active_profiler, active_registry
from repro.obs.profile import kernel_phase

Adjacency = list  # list[list[tuple[int, float]]]


def _report(settled: int, relaxations: int) -> None:
    # Batched once per call so the hot loop carries no registry cost.
    reg = active_registry()
    reg.counter("geodesic.dijkstra.calls").add(1)
    reg.counter("geodesic.dijkstra.settled").add(settled)
    reg.counter("geodesic.dijkstra.relaxations").add(relaxations)
    # Same deltas on the open "graph-kernel" profiler frame, when a
    # profiling context is active (see repro.obs.profile.kernel_phase).
    profiler = active_profiler()
    if profiler.enabled:
        profiler.count("kernel_calls", 1)
        profiler.count("settled", settled)
        profiler.count("relaxations", relaxations)


@kernel_phase
def dijkstra(
    adj: Adjacency,
    source: int,
    targets: set[int] | None = None,
    max_dist: float | None = None,
) -> dict[int, float]:
    """Single-source shortest path distances.

    Parameters
    ----------
    adj:
        ``adj[u]`` iterates ``(v, weight)`` pairs; weights must be
        non-negative.
    source:
        Start node index.
    targets:
        Optional set of nodes; the search stops once all are settled.
        Unreachable targets are simply absent from the result.
    max_dist:
        Optional distance cap; nodes farther than this are not settled.

    Returns
    -------
    dict mapping each settled node to its distance from ``source``.
    """
    if not 0 <= source < len(adj):
        raise GeodesicError(f"source {source} out of range")
    dist: dict[int, float] = {}
    remaining = set(targets) if targets is not None else None
    heap: list[tuple[float, int]] = [(0.0, source)]
    relaxations = 0
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        if max_dist is not None and d > max_dist:
            break
        dist[u] = d
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, w in adj[u]:
            if v not in dist:
                nd = d + w
                if max_dist is None or nd <= max_dist:
                    heapq.heappush(heap, (nd, v))
                    relaxations += 1
    _report(len(dist), relaxations)
    return dist


@kernel_phase
def dijkstra_with_parents(
    adj: Adjacency,
    source: int,
    targets: set[int] | None = None,
    max_dist: float | None = None,
) -> tuple[dict[int, float], dict[int, int]]:
    """Like :func:`dijkstra` but also returns a shortest-path tree.

    The second return value maps each settled node (except the
    source) to its predecessor on a shortest path.
    """
    if not 0 <= source < len(adj):
        raise GeodesicError(f"source {source} out of range")
    dist: dict[int, float] = {}
    parent: dict[int, int] = {}
    remaining = set(targets) if targets is not None else None
    heap: list[tuple[float, int, int]] = [(0.0, source, -1)]
    relaxations = 0
    while heap:
        d, u, p = heapq.heappop(heap)
        if u in dist:
            continue
        if max_dist is not None and d > max_dist:
            break
        dist[u] = d
        if p >= 0:
            parent[u] = p
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, w in adj[u]:
            if v not in dist:
                nd = d + w
                if max_dist is None or nd <= max_dist:
                    heapq.heappush(heap, (nd, v, u))
                    relaxations += 1
    _report(len(dist), relaxations)
    return dist, parent


def shortest_path(
    adj: Adjacency, source: int, target: int, max_dist: float | None = None
) -> tuple[float, list[int]]:
    """Distance and node sequence of a shortest source→target path.

    Raises :class:`GeodesicError` when the target is unreachable
    (within ``max_dist`` if given).
    """
    dist, parent = dijkstra_with_parents(
        adj, source, targets={target}, max_dist=max_dist
    )
    if target not in dist:
        raise GeodesicError(
            f"no path from {source} to {target}"
            + (f" within distance {max_dist}" if max_dist is not None else "")
        )
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return dist[target], path


# The dict kernels stay available under explicit names as the ground
# truth for the flat CSR kernels (repro.geodesic.csr): differential
# tests and `bench kernels` run both and assert identical results.
dijkstra_reference = dijkstra
dijkstra_with_parents_reference = dijkstra_with_parents
