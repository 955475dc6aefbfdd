"""Flat CSR graph kernels — the array-based path for every
shortest-path search in the system.

:class:`CSRGraph` stores adjacency in compressed-sparse-row form
(``indptr``/``indices``/``weights`` numpy arrays), built once from
arrays: the vectorised pathnet builder, a DMTM compiled cut, or the
mesh edge network (:func:`edge_network_csr`).  The heap kernels here
run on preallocated flat arrays (``dist`` list indexed by dense node
id, ``visited`` bytearray) and batch their settled/relaxation counters
once per call.

Three search shapes cover every caller:

* :func:`graph_dijkstra_with_parents` — single-source (optionally
  multi-target, region-restricted) searches returning distances and
  the shortest-path tree, whose ``(d, u, p)`` heap tuple fixes
  distances, parents and early-exit behaviour
  (:func:`dijkstra_csr_with_parents`); :func:`tree_path` walks a
  route out of the tree;
* :func:`multi_source_dijkstra_csr` — all anchors of a ranking level
  settle in ONE search.  Each source carries an additive offset; the
  priority is recomposed as ``offset + raw`` at every relaxation, and
  the heap tuple ``(value, node, rank, parent, raw)`` breaks
  cross-anchor value ties toward the lowest-ranked source — the
  per-anchor loop's strict-< first-anchor-wins rule.  Values equal
  that loop's ``fl(offset ⊕ distance)`` up to rounding: where two
  anchors' labels meet at a node, the winner's continuation can sum
  an ulp above the loser's (see :func:`multi_source_heap`);
* :func:`astar_csr` — single-target A* with the admissible (and
  consistent) straight-line-distance heuristic, for value-only bound
  refinement; it may realise a different same-length path than
  Dijkstra on tie-heavy meshes, so it is only wired where the path is
  not consumed.

Two kernels serve each Dijkstra shape, chosen by graph size alone,
never by process state, once per shape in
:func:`graph_dijkstra_with_parents` and
:func:`multi_source_dijkstra_csr`: a graph (or ``region`` subgraph)
below :data:`~repro.geodesic.frontier.MIN_FRONTIER_NODES` nodes, or
with a zero-weight edge, runs the heap kernel here, anything larger
the one bucketed numpy kernel,
:func:`repro.geodesic.frontier.multi_source_frontier` — a
single-source search as its one-source case ``[(source, 0.0)]``.
Both return identical answers; their oracles, dict kernels over
adjacency lists, live in :mod:`repro.testkit.reference`.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import GeodesicError
from repro.geodesic.deadline import (
    DEADLINE_CHECK_INTERVAL,
    DeadlineExceeded,
    current_deadline,
)
from repro.obs.context import current
from repro.obs.profile import kernel_phase

# ----------------------------------------------------------------------
# CSR representation
# ----------------------------------------------------------------------


class CSRGraph:
    """Compressed-sparse-row adjacency with optional node positions.

    ``indices[indptr[u]:indptr[u + 1]]`` are u's neighbours, in the
    order every kernel walks them (ties resolve by it), with parallel
    ``weights``.  ``positions`` is an optional ``(n, 3)`` float array
    enabling the A* straight-line heuristic.

    The arrays are the storage and are never mutated.  The CPython
    heap loops index plain lists far faster than numpy scalars, so
    :meth:`lists` derives them on first use.
    """

    __slots__ = ("indptr", "indices", "weights", "positions", "_lists", "_wmin")

    def __init__(self, indptr, indices, weights, positions=None):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.positions = (
            np.asarray(positions, dtype=np.float64) if positions is not None else None
        )
        self._lists = None
        self._wmin = None  # smallest edge weight, for the bucket kernel

    @property
    def num_nodes(self) -> int:
        return int(self.indptr.shape[0]) - 1

    @property
    def num_edges(self) -> int:
        return int(self.indices.shape[0])

    def lists(self) -> tuple[list, list, list]:
        """``(indptr, indices, weights)`` as plain Python lists — the
        form the CPython heap loops consume, derived on first call and
        published as one tuple so a concurrent first call never sees
        a partial set."""
        lists = self._lists
        if lists is None:
            lists = self._lists = (
                self.indptr.tolist(),
                self.indices.tolist(),
                self.weights.tolist(),
            )
        return lists

    def heuristic_to(self, target: int) -> list[float]:
        """Straight-line distances from every node to ``target`` (one
        vectorised pass) — the admissible A* heuristic."""
        if self.positions is None:
            raise GeodesicError("CSRGraph has no positions; A* unavailable")
        deltas = self.positions - self.positions[target]
        return np.sqrt((deltas * deltas).sum(axis=1)).tolist()


def edge_network_csr(mesh) -> CSRGraph:
    """The mesh edge network — the graph whose distances are the
    paper's ``dN`` — with the mesh vertices as node positions.

    Both directed copies of every edge, interleaved per edge id, are
    sorted stably by tail, so each vertex lists its neighbours in edge
    id order, each edge weighted by its length."""
    ends = mesh.edge_vertices
    tails = ends.ravel()
    heads = ends[:, ::-1].ravel()
    order = np.argsort(tails, kind="stable")
    n = mesh.num_vertices
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    weights = np.repeat(mesh.edge_lengths, 2)
    return CSRGraph(indptr, heads[order], weights[order], positions=mesh.vertices)


# ----------------------------------------------------------------------
# counters (one set of registry names for every kernel)
# ----------------------------------------------------------------------


def _report(settled: int, relaxations: int) -> None:
    # Under a profiling context the same deltas land on the open
    # "graph-kernel" frame (see repro.obs.profile.kernel_phase).
    obs = current()
    obs.count("geodesic.dijkstra.calls")
    obs.count("geodesic.dijkstra.settled", settled)
    obs.count("geodesic.dijkstra.relaxations", relaxations)


# ----------------------------------------------------------------------
# flat-array kernels
# ----------------------------------------------------------------------


@kernel_phase
def dijkstra_csr_with_parents(
    csr: CSRGraph,
    source: int,
    targets: set[int] | None = None,
    max_dist: float | None = None,
    region: np.ndarray | None = None,
) -> tuple[dict[int, float], dict[int, int]]:
    """Flat-array single-source Dijkstra: ``(d, u, p)`` heap tuples,
    neighbours in CSR order, a stop once every target settled or the
    frontier passed ``max_dist``.  Returns settled node -> distance
    and the shortest-path tree (settled node -> predecessor, the
    source excluded); ``p`` breaks ties between equal-length parents.

    ``region`` (a boolean node mask) searches the subgraph the mask
    induces, in place: the nodes outside it start out visited, so no
    edge reaches them and a source outside it settles nothing, and
    the search settles,
    relaxes and breaks ties as it would on that subgraph compiled on
    its own with its nodes numbered in the same order."""
    n = csr.num_nodes
    if not 0 <= source < n:
        raise GeodesicError(f"source {source} out of range")
    indptr, indices, weights = csr.lists()
    visited = bytearray(n) if region is None else bytearray(~region)
    out: dict[int, float] = {}
    parent: dict[int, int] = {}
    remaining = set(targets) if targets is not None else None
    heap: list[tuple[float, int, int]] = [(0.0, source, -1)]
    relaxations = 0
    deadline = current_deadline()
    while heap:
        d, u, p = heapq.heappop(heap)
        if visited[u]:
            continue
        if max_dist is not None and d > max_dist:
            break
        visited[u] = 1
        out[u] = d
        if (
            deadline is not None
            and len(out) % DEADLINE_CHECK_INTERVAL == 0
            and time.perf_counter() >= deadline
        ):
            raise DeadlineExceeded(
                f"dijkstra_csr_with_parents passed its deadline after "
                f"{len(out)} settled nodes"
            )
        if p >= 0:
            parent[u] = p
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for e in range(indptr[u], indptr[u + 1]):
            v = indices[e]
            if not visited[v]:
                nd = d + weights[e]
                if max_dist is None or nd <= max_dist:
                    heapq.heappush(heap, (nd, v, u))
                    relaxations += 1
    _report(len(out), relaxations)
    return out, parent


@dataclass
class MultiSourceResult:
    """Settled labels of one multi-source search.

    All maps are keyed by settled node id: ``value`` is the offset
    -composed priority ``fl(offset_rank ⊕ raw)``, ``raw`` the plain
    path length from the winning source, ``origin`` the rank (index
    into the ``sources`` argument) of that source, ``parent`` the
    predecessor (absent for source nodes settled from themselves).
    """

    value: dict[int, float]
    raw: dict[int, float]
    origin: dict[int, int]
    parent: dict[int, int]

    def path_to(self, node: int) -> list[int]:
        """Node sequence from the winning source to ``node``."""
        return tree_path(self.parent, node)


def tree_path(parent: dict[int, int], node: int) -> list[int]:
    """Node sequence from the root of a shortest-path tree to
    ``node``: the ``parent`` links followed back to a node without
    one (the search's source), then reversed."""
    path = [node]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def multi_source_dijkstra_csr(
    csr: CSRGraph,
    sources: list[tuple[int, float]],
    targets: set[int] | None = None,
    max_dist: float | None = None,
) -> MultiSourceResult:
    """One search settling the best ``offset + distance`` label over
    many ``(node, offset)`` sources.

    Replaces one Dijkstra per anchor: with M anchors and N
    targets, one wavefront serves all M·N pairs.  Graphs of
    ``MIN_FRONTIER_NODES`` nodes or more with positive edge weights
    run the bucket kernel
    :func:`repro.geodesic.frontier.multi_source_frontier`, the rest
    the heap kernel :func:`multi_source_heap`; both return the same
    labels.
    """
    from repro.geodesic import frontier

    if (
        csr.num_nodes >= frontier.MIN_FRONTIER_NODES
        and frontier.min_weight(csr) > 0.0
    ):
        return frontier.multi_source_frontier(csr, sources, targets, max_dist)
    return multi_source_heap(csr, sources, targets, max_dist)


@kernel_phase
def multi_source_heap(
    csr: CSRGraph,
    sources: list[tuple[int, float]],
    targets: set[int] | None = None,
    max_dist: float | None = None,
) -> MultiSourceResult:
    """Heap kernel behind :func:`multi_source_dijkstra_csr`.

    The priority is recomposed as ``offsets[rank] + raw`` at every
    relaxation (not accumulated), so each settled value is
    ``fl(offset ⊕ raw)`` with ``raw`` the float length of the path
    the search followed; ties between equal values from different
    sources settle the lowest rank first, matching the strict-<
    first-anchor-wins minimum the ranking loop applies over
    per-anchor results.  The one difference from one search per
    anchor: when anchor B's label beats anchor A's at a node only
    through rounding, A's shorter continuation through that node is
    never composed, and a target can settle an ulp above
    ``offset_A + d_A``.  The value is still the offset plus the
    length of a real path.
    """
    n = csr.num_nodes
    if not sources:
        _report(0, 0)
        return MultiSourceResult({}, {}, {}, {})
    indptr, indices, weights = csr.lists()
    offsets = []
    heap: list[tuple[float, int, int, int, float]] = []
    for rank, (node, offset) in enumerate(sources):
        if not 0 <= node < n:
            raise GeodesicError(f"source {node} out of range")
        offset = float(offset)
        offsets.append(offset)
        # value = fl(offset ⊕ 0.0) == offset; raw starts at 0.0.
        heap.append((offset, node, rank, -1, 0.0))
    heapq.heapify(heap)
    visited = bytearray(n)
    value: dict[int, float] = {}
    raw: dict[int, float] = {}
    origin: dict[int, int] = {}
    parent: dict[int, int] = {}
    remaining = set(targets) if targets is not None else None
    relaxations = 0
    deadline = current_deadline()
    while heap:
        val, u, rank, p, rw = heapq.heappop(heap)
        if visited[u]:
            continue
        if max_dist is not None and val > max_dist:
            break
        visited[u] = 1
        value[u] = val
        raw[u] = rw
        origin[u] = rank
        if (
            deadline is not None
            and len(value) % DEADLINE_CHECK_INTERVAL == 0
            and time.perf_counter() >= deadline
        ):
            raise DeadlineExceeded(
                f"multi_source_heap passed its deadline after "
                f"{len(value)} settled nodes"
            )
        if p >= 0:
            parent[u] = p
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        off = offsets[rank]
        for e in range(indptr[u], indptr[u + 1]):
            v = indices[e]
            if not visited[v]:
                nraw = rw + weights[e]
                nval = off + nraw
                if max_dist is None or nval <= max_dist:
                    heapq.heappush(heap, (nval, v, rank, u, nraw))
                    relaxations += 1
    _report(len(value), relaxations)
    return MultiSourceResult(value=value, raw=raw, origin=origin, parent=parent)


@kernel_phase
def astar_csr(
    csr: CSRGraph,
    source: int,
    target: int,
    max_dist: float | None = None,
) -> float | None:
    """Single-target A* with the straight-line-distance heuristic.

    The heuristic is admissible and consistent (edge weights are 3D
    segment lengths, never shorter than the straight line), so the
    returned distance equals Dijkstra's.  Returns None when the
    target is unreachable (within ``max_dist`` if given).  Value-only:
    on meshes with many equal-length paths A* may walk a different
    one, so callers that consume path keys use
    :func:`dijkstra_csr_with_parents` instead.
    """
    n = csr.num_nodes
    if not 0 <= source < n:
        raise GeodesicError(f"source {source} out of range")
    if not 0 <= target < n:
        raise GeodesicError(f"target {target} out of range")
    if source == target:
        _report(1, 0)
        return 0.0
    h = csr.heuristic_to(target)
    indptr, indices, weights = csr.lists()
    visited = bytearray(n)
    settled = 0
    relaxations = 0
    # (priority, g, node): priority = g + h(node), h(target) == 0.
    heap: list[tuple[float, float, int]] = [(h[source], 0.0, source)]
    result = None
    deadline = current_deadline()
    while heap:
        pri, g, u = heapq.heappop(heap)
        if visited[u]:
            continue
        if max_dist is not None and pri > max_dist:
            break
        visited[u] = 1
        settled += 1
        if (
            deadline is not None
            and settled % DEADLINE_CHECK_INTERVAL == 0
            and time.perf_counter() >= deadline
        ):
            raise DeadlineExceeded(
                f"astar_csr passed its deadline after {settled} "
                "settled nodes"
            )
        if u == target:
            result = g
            break
        for e in range(indptr[u], indptr[u + 1]):
            v = indices[e]
            if not visited[v]:
                ng = g + weights[e]
                npri = ng + h[v]
                if max_dist is None or npri <= max_dist:
                    heapq.heappush(heap, (npri, ng, v))
                    relaxations += 1
    _report(settled, relaxations)
    return result


# ----------------------------------------------------------------------
# single-source dispatcher
# ----------------------------------------------------------------------


def graph_dijkstra_with_parents(
    graph, source, targets=None, max_dist=None, region=None
) -> tuple[dict[int, float], dict[int, int]]:
    """Single-source search with parents on a
    :class:`~repro.geodesic.graph.KeyedGraph` or a :class:`CSRGraph`:
    :func:`dijkstra_csr_with_parents` below ``MIN_FRONTIER_NODES``
    nodes (or with a zero-weight edge), else the one-source case
    ``[(source, 0.0)]`` of the bucket kernel
    :func:`repro.geodesic.frontier.multi_source_frontier`, whose
    values and parents equal the heap kernel's.  ``region`` (a
    boolean node mask) restricts the search to the subgraph the mask
    induces; the kernel is then chosen by that subgraph's node count
    and smallest edge weight, as if it had been compiled on its own."""
    from repro.geodesic import frontier

    csr = graph if isinstance(graph, CSRGraph) else graph.csr
    nodes = csr.num_nodes if region is None else int(np.count_nonzero(region))
    if nodes >= frontier.MIN_FRONTIER_NODES:
        wmin = frontier.min_weight(csr, region)
        if wmin > 0.0:
            found = frontier.multi_source_frontier(
                csr, [(source, 0.0)], targets, max_dist, region, wmin
            )
            return found.value, found.parent
    return dijkstra_csr_with_parents(csr, source, targets, max_dist, region)
