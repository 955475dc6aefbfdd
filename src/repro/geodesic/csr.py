"""Flat CSR graph kernels — the array-based fast path for every
shortest-path search in the system.

:class:`CSRGraph` stores adjacency in compressed-sparse-row form
(``indptr``/``indices``/``weights`` numpy arrays) compiled once from a
:class:`repro.geodesic.graph.KeyedGraph` or a plain list-of-lists.
The kernels run on preallocated flat arrays (``dist`` list indexed by
dense node id, ``visited`` bytearray) instead of per-search dicts, and
batch their settled/relaxation counters exactly like the reference
kernels in :mod:`repro.geodesic.dijkstra`.

Three search shapes cover every caller:

* :func:`dijkstra_csr` / :func:`dijkstra_csr_with_parents` —
  single-source (optionally multi-target) searches, drop-in
  replacements for the dict reference with bit-identical distances,
  parents and early-exit behaviour (same heap tuple ordering);
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

Which kernel a search runs is fixed by the graph, never by process
state (:func:`graph_dijkstra`, :func:`multi_source_dijkstra_csr`):

* a :class:`~repro.geodesic.graph.KeyedGraph` nobody compiled runs
  the dict kernel — compile-then-search loses on a graph searched
  once;
* a compiled graph below
  :data:`~repro.geodesic.frontier.MIN_FRONTIER_NODES` nodes (or with a
  zero-weight edge) runs the heap CSR kernel;
* anything larger runs the bucketed numpy kernels of
  :mod:`repro.geodesic.frontier`.

All three return identical answers; the dict kernels
(``dijkstra_reference``) double as the differential oracle the tests
call directly.
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
from repro.obs.context import active_profiler, active_registry
from repro.obs.profile import kernel_phase

# ----------------------------------------------------------------------
# CSR representation
# ----------------------------------------------------------------------


class CSRGraph:
    """Compressed-sparse-row adjacency with optional node positions.

    ``indices[indptr[u]:indptr[u + 1]]`` are u's neighbours in the
    same order the source adjacency list iterated them (ties in the
    kernels therefore resolve identically), with parallel ``weights``.
    ``positions`` is an optional ``(n, 3)`` float array enabling the
    A* straight-line heuristic.

    The hot loops run in CPython, where plain lists beat numpy scalar
    indexing by a wide margin, so lists are the primary storage; the
    ``indptr``/``indices``/``weights`` numpy views are materialised
    lazily on first access.  Compile cost matters — pathnet refinement
    builds throwaway graphs searched once — so nothing numpy happens
    up front.
    """

    __slots__ = ("_lists", "_arrays", "_frontier", "positions")

    def __init__(self, indptr, indices, weights, positions=None):
        if (
            isinstance(indptr, np.ndarray)
            and isinstance(indices, np.ndarray)
            and isinstance(weights, np.ndarray)
        ):
            # Array-first construction (the vectorised pathnet
            # builder): keep the numpy form primary and materialise
            # the list mirrors lazily — the frontier kernels never
            # need them.
            self._lists = None
            self._arrays = (
                np.ascontiguousarray(indptr, dtype=np.int64),
                np.ascontiguousarray(indices, dtype=np.int64),
                np.ascontiguousarray(weights, dtype=np.float64),
            )
        else:
            self._lists = (list(indptr), list(indices), list(weights))
            self._arrays = None
        self._frontier = None  # per-graph frontier-kernel state cache
        self.positions = (
            np.asarray(positions, dtype=np.float64) if positions is not None else None
        )

    def _materialise(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        arrays = self._arrays
        lists = self._lists
        if (
            arrays is not None
            and lists is not None
            and (
                arrays[0].shape[0] != len(lists[0])
                or arrays[1].shape[0] != len(lists[1])
            )
        ):
            # Hardening: a caller grew the list storage after the
            # numpy views were materialised.  Re-materialise (and drop
            # the derived frontier state) rather than search on stale
            # views.
            arrays = None
            self._frontier = None
        if arrays is None:
            arrays = self._arrays = (
                np.asarray(lists[0], dtype=np.int64),
                np.asarray(lists[1], dtype=np.int64),
                np.asarray(lists[2], dtype=np.float64),
            )
        return arrays

    @property
    def indptr(self) -> np.ndarray:
        return self._materialise()[0]

    @property
    def indices(self) -> np.ndarray:
        return self._materialise()[1]

    @property
    def weights(self) -> np.ndarray:
        return self._materialise()[2]

    @property
    def num_nodes(self) -> int:
        lists = self._lists
        if lists is not None:
            return len(lists[0]) - 1
        return int(self._arrays[0].shape[0]) - 1

    @property
    def num_edges(self) -> int:
        lists = self._lists
        if lists is not None:
            return len(lists[1])
        return int(self._arrays[1].shape[0])

    def lists(self) -> tuple[list, list, list]:
        """``(indptr, indices, weights)`` as plain Python lists — the
        form the CPython hot loops consume (materialised lazily for
        array-first graphs, and published as one tuple so a
        concurrent first call never sees a partial set)."""
        lists = self._lists
        if lists is None:
            indptr, indices, weights = self._arrays
            lists = self._lists = (
                indptr.tolist(),
                indices.tolist(),
                weights.tolist(),
            )
        return lists

    def heuristic_to(self, target: int) -> list[float]:
        """Straight-line distances from every node to ``target`` (one
        vectorised pass) — the admissible A* heuristic."""
        if self.positions is None:
            raise GeodesicError("CSRGraph has no positions; A* unavailable")
        deltas = self.positions - self.positions[target]
        return np.sqrt((deltas * deltas).sum(axis=1)).tolist()


def csr_from_adjacency(adj, positions=None) -> CSRGraph:
    """Compile a list-of-lists adjacency (``adj[u]`` iterating
    ``(v, weight)`` pairs) into a :class:`CSRGraph`."""
    indptr = [0] * (len(adj) + 1)
    indices: list[int] = []
    weights: list[float] = []
    extend_i = indices.extend
    extend_w = weights.extend
    total = 0
    for u, nbrs in enumerate(adj):
        total += len(nbrs)
        indptr[u + 1] = total
        if nbrs:
            vs, ws = zip(*nbrs)
            extend_i(vs)
            extend_w(ws)
    return CSRGraph(indptr=indptr, indices=indices, weights=weights, positions=positions)


# ----------------------------------------------------------------------
# counters (same registry names as the reference kernels)
# ----------------------------------------------------------------------


def _report(settled: int, relaxations: int) -> None:
    reg = active_registry()
    reg.counter("geodesic.dijkstra.calls").add(1)
    reg.counter("geodesic.dijkstra.settled").add(settled)
    reg.counter("geodesic.dijkstra.relaxations").add(relaxations)
    # Under a profiling context the same deltas land on the open
    # "graph-kernel" phase frame (see repro.obs.profile.kernel_phase).
    profiler = active_profiler()
    if profiler.enabled:
        profiler.count("kernel_calls", 1)
        profiler.count("settled", settled)
        profiler.count("relaxations", relaxations)


# ----------------------------------------------------------------------
# flat-array kernels
# ----------------------------------------------------------------------


@kernel_phase
def dijkstra_csr(
    csr: CSRGraph,
    source: int,
    targets: set[int] | None = None,
    max_dist: float | None = None,
) -> dict[int, float]:
    """Flat-array single-source Dijkstra, bit-identical to
    :func:`repro.geodesic.dijkstra.dijkstra` (same heap tuples, same
    neighbour order, same early-exit rules)."""
    n = csr.num_nodes
    if not 0 <= source < n:
        raise GeodesicError(f"source {source} out of range")
    indptr, indices, weights = csr.lists()
    visited = bytearray(n)
    out: dict[int, float] = {}
    remaining = set(targets) if targets is not None else None
    heap: list[tuple[float, int]] = [(0.0, source)]
    relaxations = 0
    deadline = current_deadline()
    while heap:
        d, u = heapq.heappop(heap)
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
                f"dijkstra_csr passed its deadline after {len(out)} "
                "settled nodes"
            )
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for e in range(indptr[u], indptr[u + 1]):
            v = indices[e]
            if not visited[v]:
                nd = d + weights[e]
                if max_dist is None or nd <= max_dist:
                    heapq.heappush(heap, (nd, v))
                    relaxations += 1
    _report(len(out), relaxations)
    return out


@kernel_phase
def dijkstra_csr_with_parents(
    csr: CSRGraph,
    source: int,
    targets: set[int] | None = None,
    max_dist: float | None = None,
    region: np.ndarray | None = None,
) -> tuple[dict[int, float], dict[int, int]]:
    """Flat-array variant of
    :func:`repro.geodesic.dijkstra.dijkstra_with_parents` — identical
    distances AND identical shortest-path trees (the ``(d, u, p)``
    heap tuple ordering is preserved, so tie-broken parents match).

    ``region`` (a boolean node mask holding ``source``) searches the
    subgraph the mask induces, in place: the nodes outside it start
    out visited, so no edge reaches them, and the search settles,
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
        path = [node]
        while path[-1] in self.parent:
            path.append(self.parent[path[-1]])
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

    Replaces one-reference-Dijkstra-per-anchor: with M anchors and N
    targets, one wavefront serves all M·N pairs.  Graphs of
    ``MIN_FRONTIER_NODES`` nodes or more run the bucketed twin
    :func:`repro.geodesic.frontier.multi_source_frontier`, smaller
    ones the heap kernel :func:`multi_source_heap`; both return the
    same labels.
    """
    from repro.geodesic import frontier

    if csr.num_nodes >= frontier.MIN_FRONTIER_NODES:
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
    heuristic=None,
) -> float | None:
    """Single-target A* with the straight-line-distance heuristic.

    The heuristic is admissible and consistent (edge weights are 3D
    segment lengths, never shorter than the straight line), so the
    returned distance equals Dijkstra's.  Returns None when the
    target is unreachable (within ``max_dist`` if given).  Value-only:
    on meshes with many equal-length paths A* may walk a different
    one, so callers that consume path keys use
    :func:`dijkstra_csr_with_parents` instead.

    ``heuristic`` optionally replaces the straight-line heuristic
    with a caller-supplied per-node sequence (e.g. the ALT landmark
    heuristic from
    :meth:`repro.geodesic.landmarks.LandmarkIndex.pathnet_heuristic`).
    The caller must guarantee admissibility and consistency — the
    returned distance is exact only under those properties.
    """
    n = csr.num_nodes
    if not 0 <= source < n:
        raise GeodesicError(f"source {source} out of range")
    if not 0 <= target < n:
        raise GeodesicError(f"target {target} out of range")
    if source == target:
        _report(1, 0)
        return 0.0
    h = csr.heuristic_to(target) if heuristic is None else heuristic
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
# dispatchers for KeyedGraph call sites
# ----------------------------------------------------------------------


def graph_dijkstra(graph, source, targets=None, max_dist=None) -> dict[int, float]:
    """Single-source search under the fixed kernel rule.

    A graph nobody compiled runs the dict kernel: compile-then-search
    loses to it on a graph searched once.  A compiled graph (a cached
    network view, an array-built pathnet) runs
    :func:`repro.geodesic.frontier.dijkstra_frontier`, which keeps
    graphs below ``MIN_FRONTIER_NODES`` on the heap CSR kernel.
    """
    csr = graph.csr_if_compiled()
    if csr is None:
        from repro.geodesic.dijkstra import dijkstra_reference

        return dijkstra_reference(graph.adjacency, source, targets, max_dist)
    from repro.geodesic.frontier import dijkstra_frontier

    return dijkstra_frontier(csr, source, targets, max_dist)


def graph_dijkstra_with_parents(
    graph, source, targets=None, max_dist=None, region=None
) -> tuple[dict[int, float], dict[int, int]]:
    """With-parents variant of :func:`graph_dijkstra` (same rule).

    ``graph`` may also be a :class:`CSRGraph`, which is compiled by
    definition.  ``region`` (a boolean node mask, compiled graphs
    only) restricts the search to the subgraph the mask induces; the
    kernel is then chosen by that subgraph, as if it had been
    compiled on its own (see
    :func:`repro.geodesic.frontier.dijkstra_frontier_with_parents`)."""
    csr = graph if isinstance(graph, CSRGraph) else graph.csr_if_compiled()
    if csr is None:
        if region is not None:
            raise GeodesicError("a region search needs a compiled graph")
        from repro.geodesic.dijkstra import dijkstra_with_parents

        return dijkstra_with_parents(graph.adjacency, source, targets, max_dist)
    from repro.geodesic.frontier import dijkstra_frontier_with_parents

    return dijkstra_frontier_with_parents(csr, source, targets, max_dist, region)
