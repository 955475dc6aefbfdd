"""The bucketed numpy search kernel: whole frontiers settle per step.

The heap kernels in :mod:`repro.geodesic.csr` relax one node per pop
in CPython.  :func:`multi_source_frontier` settles a whole *bucket*
of nodes per step and relaxes all their out-edges in a handful of
vectorised numpy operations — the array-first discipline that
in-memory road-network studies show dominates pointer-chasing
implementations.  It is the one bucket kernel: a single-source
search is its one-source case ``[(source, 0.0)]``.

**Bucketing rule (threshold stepping).**  With ``wmin`` the smallest
(strictly positive) edge weight, every labeled-but-unsettled node
with tentative value ``v < tmin + wmin`` — ``tmin`` the smallest
tentative value — already carries its final label: any improvement
would route through a node with value ``>= tmin`` plus an edge of
weight ``>= wmin``.  The whole threshold window settles as one bucket
and its out-edges relax as one batch (gather / lexsort / first-
occurrence reduce, the ``np.minimum.reduceat`` family).  The window
is shrunk by a rounding-error margin (see ``_margin``) so a candidate
composed in floating point can never round below the threshold; if
the margin swallows ``wmin`` the bucket degenerates to the single
lexicographic minimum — exactly one reference heap pop, always safe.

**Identity contract.**  The kernel reproduces its heap twins bit for
bit: :func:`~repro.geodesic.csr.multi_source_heap` for any source
list, and :func:`~repro.geodesic.csr.dijkstra_csr_with_parents` for
one source at offset 0.0 — same values, same parents, same
tie-breaks, and the same settled set under ``targets`` early exit and
``max_dist`` cutoffs.  Ties resolve by emulating the reference heap
tuple ``(value, node, rank, parent, raw)`` as lexicographic minima
over the batched candidate columns, and values compose with the same
float operations (``raw + w`` then ``offset + raw``); with one source
at offset 0.0 the rank never differs, ``offset + raw`` is ``raw``,
and the tuple orders as the single-source ``(d, u, p)``.  The
reference's early-exit settled set is a prefix of the
``(value, node)``-sorted pop order; the kernel computes buckets until
every target settles, then cuts the output at the last target's
``(value, node)`` pair.

**When the heap kernels still win.**  The kernel does not choose:
:func:`~repro.geodesic.csr.graph_dijkstra_with_parents` and
:func:`~repro.geodesic.csr.multi_source_dijkstra_csr` apply the size
rule, once each, before any profiler frame opens.  Graphs (or
``region`` subgraphs) below :data:`MIN_FRONTIER_NODES` nodes, too
small to amortise numpy call overhead, and graphs with a zero-weight
edge (no positive window exists) run the heap twin.  So each search
bills one frame named for the kernel that ran: ``frontier-relaxation``
for a bucketed search, the heap twin's ``graph-kernel`` otherwise.

:func:`build_pathnet_arrays` is the companion construction kernel
behind :func:`repro.geodesic.pathnet.build_pathnet`: the Steiner
pathnet as flat arrays, in the node first-encounter order, per-face
pair expansion and adjacency order of the per-face Python loop kept
as the oracle :func:`repro.testkit.reference.build_pathnet_reference`,
bit-identical weights included.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.errors import GeodesicError
from repro.geodesic.csr import CSRGraph, MultiSourceResult, _report
from repro.geodesic.deadline import DeadlineExceeded, current_deadline
from repro.obs.context import current
from repro.obs.profile import kernel_phase_named

frontier_phase = kernel_phase_named("frontier-relaxation")

_EPS = float(np.finfo(np.float64).eps)

# Below this node count the numpy per-bucket overhead loses to the
# CPython heap, and the dispatchers run the heap kernels.  Measured
# crossover on corridor pathnets is ~400-900 nodes (the heap wins 2x
# at ~300, the buckets win 1.5x at ~900); the kernels stay
# bit-identical either side, so the cutoff is purely a speed knob.
# Full-terrain pathnet and ranking-level networks sit well above it.
MIN_FRONTIER_NODES = 512


def _report_frontier(buckets: int, batch_relaxations: int, max_frontier: int) -> None:
    """Frontier-shape counters, alongside the shared settled /
    relaxations counters reported via :func:`repro.geodesic.csr._report`.

    Invariants (reconciled in test_obs_profile): each bucket settles at
    least one node, so ``buckets <= settled``; at most one batched
    relaxation runs per bucket, so ``batch_relaxations <= buckets``;
    ``max_frontier`` accumulates each call's largest bucket, so
    ``buckets <= max_frontier <= settled`` over any window.
    """
    obs = current()
    obs.count("geodesic.frontier.buckets", buckets)
    obs.count("geodesic.frontier.batch_relaxations", batch_relaxations)
    obs.count("geodesic.frontier.max_frontier", max_frontier)


def min_weight(csr: CSRGraph, region: np.ndarray | None = None) -> float:
    """The smallest edge weight of ``csr`` (memoized on the graph), or
    of the subgraph a boolean node mask ``region`` induces — the
    ``wmin`` of the bucketing rule."""
    if region is None:
        wmin = csr._wmin
        if wmin is None:
            weights = csr.weights
            wmin = csr._wmin = float(weights.min()) if weights.size else math.inf
        return wmin
    indptr, indices = csr.indptr, csr.indices
    inside = np.repeat(region, np.diff(indptr)) & region[indices]
    kept = csr.weights[inside]
    return float(kept.min()) if kept.size else math.inf


def _margin(scale: float) -> float:
    """Upper bound on how far below its exact value a batched float
    composition can land, at magnitude ``scale``.  Each candidate is
    at most a few roundings away from exact (``raw + w`` then
    ``offset + raw``); 32 ulps is comfortably above that."""
    return 32.0 * _EPS * max(scale, 1.0)


@frontier_phase
def multi_source_frontier(
    csr: CSRGraph,
    sources: list[tuple[int, float]],
    targets: set[int] | None = None,
    max_dist: float | None = None,
    region: np.ndarray | None = None,
    wmin: float | None = None,
) -> MultiSourceResult:
    """Bucketed multi-source relaxation, bit-identical to
    :func:`repro.geodesic.csr.multi_source_heap` (and, for
    ``[(source, 0.0)]``, to
    :func:`repro.geodesic.csr.dijkstra_csr_with_parents`).

    Labels carry the full reference heap tuple — ``(value, rank,
    parent, raw)`` per node — and every update takes the
    lexicographic minimum over the batched candidates, so values
    compose as ``fl(offset ⊕ fl(raw ⊕ w))`` and cross-anchor ties
    settle toward the lowest rank exactly like the reference.

    ``region`` (a boolean node mask) searches the subgraph the mask
    induces, in place: the nodes outside it start out settled, a
    source outside it is never labelled (so with none inside, nothing
    settles), and a bucket whose out-edges all leave the region runs
    no batch.  ``wmin`` is the smallest edge weight of the graph
    searched (:func:`min_weight`, computed when omitted), so buckets,
    counters and results are those of the same search over the
    subgraph compiled on its own."""
    n = csr.num_nodes
    if not sources:
        _report(0, 0)
        _report_frontier(0, 0, 0)
        return MultiSourceResult({}, {}, {}, {})
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    if wmin is None:
        wmin = min_weight(csr, region)

    offsets = np.empty(len(sources))
    value = np.full(n, np.inf)
    raw = np.full(n, np.inf)
    rank = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    parent = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    labelled = np.zeros(n, dtype=bool)
    for idx, (node, offset) in enumerate(sources):
        if not 0 <= node < n:
            raise GeodesicError(f"source {node} out of range")
        offset = float(offset)
        offsets[idx] = offset
        if region is not None and not region[node]:
            # Not a node of the subgraph searched: no label.
            continue
        # Initial heap entries are (offset, node, rank, -1, 0.0); for
        # a node listed twice the lower (value, rank) wins.
        if (offset < value[node]) or (offset == value[node] and idx < rank[node]):
            value[node] = offset
            raw[node] = 0.0
            rank[node] = idx
            parent[node] = -1
            labelled[node] = True
    off_scale = float(np.abs(offsets).max())

    settled = np.zeros(n, dtype=bool) if region is None else ~region
    in_pool = labelled
    pool = np.nonzero(labelled)[0].astype(np.int64)

    remaining = {int(t) for t in targets} if targets is not None else None
    target_list = list(remaining) if remaining is not None else None
    batches: list[np.ndarray] = []
    cutoff = None  # (value, node) of the reference's final settling pop
    buckets = 0
    batch_relaxations = 0
    relaxations = 0
    max_frontier = 0
    settled_count = 0
    deadline = current_deadline()

    while pool.size:
        dvals = value[pool]
        tmin = float(dvals.min())
        if max_dist is not None and tmin > max_dist:
            break
        threshold = tmin + wmin - _margin(abs(tmin) + wmin + off_scale)
        if threshold > tmin:
            take = dvals < threshold
        else:
            # Degenerate window: settle exactly one reference pop —
            # the lexicographic minimum (value, node).
            at_min = pool[dvals == tmin]
            take = pool == int(at_min.min())
        batch = pool[take]
        in_pool[batch] = False
        pool = pool[~take]
        bvals = value[batch]
        if max_dist is not None:
            keep = bvals <= max_dist
            # Nodes inside the window but past max_dist: the reference
            # stops before popping them — drop them entirely.
            batch = batch[keep]
            bvals = bvals[keep]
            if batch.size == 0:
                continue
        # Reference pop order within the bucket: (value, node).
        order = np.lexsort((batch, bvals))
        batch = batch[order]
        settled[batch] = True
        batches.append(batch)
        settled_count += int(batch.size)
        buckets += 1
        if batch.size > max_frontier:
            max_frontier = int(batch.size)
        if deadline is not None and time.perf_counter() >= deadline:
            raise DeadlineExceeded(
                f"multi_source_frontier passed its deadline after "
                f"{settled_count} settled nodes"
            )
        if remaining is not None:
            remaining.difference_update(batch.tolist())
            if not remaining:
                # The reference stops at its last target's pop — at its
                # first pop when ``targets`` is empty.
                cutoff = max(
                    ((float(value[t]), int(t)) for t in target_list if settled[t]),
                    default=(float(value[batch[0]]), int(batch[0])),
                )
                break

        # Batched relaxation of every out-edge of the bucket.
        starts = indptr[batch]
        counts = indptr[batch + 1] - starts
        total = int(counts.sum())
        if total == 0:
            continue
        prev = np.cumsum(counts) - counts
        edge_ids = np.repeat(starts - prev, counts) + np.arange(total)
        src = np.repeat(batch, counts)
        tgt = indices[edge_ids]
        if region is not None and not region[tgt].any():
            # Every edge leaves the region: the induced subgraph has
            # no out-edge here.
            continue
        batch_relaxations += 1
        # Same float composition as the reference: raw ⊕ w first,
        # then offset ⊕ raw — never accumulated in value space.
        nraw = raw[src] + weights[edge_ids]
        nrank = rank[src]
        nval = offsets[nrank] + nraw
        ok = ~settled[tgt]
        if max_dist is not None:
            ok &= nval <= max_dist
        if not ok.any():
            continue
        src = src[ok]
        tgt = tgt[ok]
        nraw = nraw[ok]
        nrank = nrank[ok]
        nval = nval[ok]
        relaxations += int(src.size)
        # Batch winner per target: lexicographic minimum over the
        # reference heap tuple (value, rank, parent, raw).
        order = np.lexsort((nraw, src, nrank, nval, tgt))
        src = src[order]
        tgt = tgt[order]
        nraw = nraw[order]
        nrank = nrank[order]
        nval = nval[order]
        first = np.empty(tgt.size, dtype=bool)
        first[0] = True
        first[1:] = tgt[1:] != tgt[:-1]
        src = src[first]
        tgt = tgt[first]
        nraw = nraw[first]
        nrank = nrank[first]
        nval = nval[first]
        # Cross-batch winner: replace the current label when the
        # candidate tuple is lexicographically smaller.
        cur_v = value[tgt]
        cur_r = rank[tgt]
        cur_p = parent[tgt]
        cur_raw = raw[tgt]
        better = (nval < cur_v) | (
            (nval == cur_v)
            & (
                (nrank < cur_r)
                | (
                    (nrank == cur_r)
                    & ((src < cur_p) | ((src == cur_p) & (nraw < cur_raw)))
                )
            )
        )
        if not better.any():
            continue
        upd = tgt[better]
        value[upd] = nval[better]
        raw[upd] = nraw[better]
        rank[upd] = nrank[better]
        parent[upd] = src[better]
        fresh = upd[~in_pool[upd]]
        if fresh.size:
            in_pool[fresh] = True
            pool = np.concatenate((pool, fresh))

    _report(settled_count, relaxations)
    _report_frontier(buckets, batch_relaxations, max_frontier)

    if batches:
        nodes = np.concatenate(batches)
    else:
        nodes = np.empty(0, dtype=np.int64)
    values = value[nodes]
    if cutoff is not None:
        cut_value, cut_node = cutoff
        keep = (values < cut_value) | ((values == cut_value) & (nodes <= cut_node))
        nodes = nodes[keep]
        values = values[keep]
    node_list = nodes.tolist()
    value_out = dict(zip(node_list, values.tolist()))
    raw_out = dict(zip(node_list, raw[nodes].tolist()))
    origin_out = dict(zip(node_list, rank[nodes].tolist()))
    parents = parent[nodes]
    parent_out = {
        int(node): int(par)
        for node, par in zip(node_list, parents.tolist())
        if par >= 0
    }
    return MultiSourceResult(
        value=value_out, raw=raw_out, origin=origin_out, parent=parent_out
    )


# ----------------------------------------------------------------------
# vectorised pathnet construction
# ----------------------------------------------------------------------


def build_pathnet_arrays(
    mesh,
    steiner_per_edge: int,
    faces: np.ndarray | None = None,
    forbidden_faces=None,
):
    """The pathnet of :func:`repro.geodesic.pathnet.build_pathnet` as
    flat arrays.

    Returns ``(codes, positions, csr)`` — ``codes`` the integer point
    codes (``vid`` for vertices, ``V + eid * spe + (j - 1)`` for
    Steiner points) in first-encounter order over the face scan,
    ``positions`` the ``(N, 3)`` point coordinates, ``csr`` the
    compiled :class:`~repro.geodesic.csr.CSRGraph` with per-node
    adjacency in the order per-face pair appends produce.  Raises
    :class:`~repro.errors.GeodesicError` on a degenerate face (fewer
    than three distinct vertices), which a validated
    :class:`~repro.terrain.mesh.TriangleMesh` never has.
    """
    spe = int(steiner_per_edge)
    if spe < 0:
        raise GeodesicError("steiner_per_edge must be >= 0")
    num_vertices = int(mesh.vertices.shape[0])
    if faces is None:
        face_ids = np.arange(mesh.num_faces, dtype=np.int64)
    else:
        face_ids = np.asarray(faces, dtype=np.int64)
    if forbidden_faces:
        forbidden = np.asarray(sorted(int(fi) for fi in forbidden_faces), np.int64)
        face_ids = face_ids[~np.isin(face_ids, forbidden)]
    nfaces = int(face_ids.shape[0])
    per_edge = 2 + spe
    ncols = 3 * per_edge
    if nfaces == 0:
        empty = np.empty(0, dtype=np.int64)
        csr = CSRGraph(
            np.zeros(1, dtype=np.int64), empty, np.empty(0), positions=None
        )
        return empty, np.empty((0, 3)), csr

    face_edges = mesh.face_edges[face_ids]  # (F, 3)
    ends = mesh.edge_vertices[face_edges]  # (F, 3, 2)
    # Point-code matrix: for each face, slot-major, endpoints first
    # then Steiner points — the reference builder's per-face scan order.
    codes = np.empty((nfaces, ncols), dtype=np.int64)
    codes[:, 0::per_edge] = ends[:, :, 0]
    codes[:, 1::per_edge] = ends[:, :, 1]
    if spe:
        steiner_base = num_vertices + face_edges * spe  # (F, 3)
        for j in range(spe):
            codes[:, 2 + j :: per_edge] = steiner_base + j
    # Per-face first-occurrence mask.  Only endpoint columns can
    # repeat (each face's three edges are distinct, so Steiner codes
    # are unique within a face).
    valid = np.ones((nfaces, ncols), dtype=bool)
    endpoint_cols = [slot * per_edge + k for slot in range(3) for k in (0, 1)]
    for i, ci in enumerate(endpoint_cols):
        for cj in endpoint_cols[i + 1 :]:
            valid[:, cj] &= codes[:, ci] != codes[:, cj]
    counts_valid = valid.sum(axis=1)
    if not (counts_valid == 3 + 3 * spe).all():
        bad = int(face_ids[np.argmax(counts_valid != 3 + 3 * spe)])
        raise GeodesicError(
            f"face {bad} has fewer than three distinct vertices; "
            "pathnets need a validated mesh"
        )
    per_face_valid = 3 + 3 * spe

    # Node ids in first-encounter order over the row-major valid scan.
    flat = codes[valid]  # row-major, matching the per-face scan order
    uniq, first_idx = np.unique(flat, return_index=True)
    node_codes = uniq[np.argsort(first_idx, kind="stable")]
    nnodes = int(node_codes.shape[0])
    lookup = np.full(num_vertices + mesh.num_edges * spe, -1, dtype=np.int64)
    lookup[node_codes] = np.arange(nnodes, dtype=np.int64)

    # Positions: mesh vertices for vertex codes, the interpolated
    # points (bit-identical to the reference builder's pu + t * (pw - pu))
    # for Steiner codes.
    positions = np.empty((nnodes, 3))
    is_vertex = node_codes < num_vertices
    positions[is_vertex] = mesh.vertices[node_codes[is_vertex]]
    if spe:
        sc = node_codes[~is_vertex] - num_vertices
        eid = sc // spe
        j = sc % spe + 1
        t = (j / (spe + 1))[:, None]
        pu = mesh.vertices[mesh.edge_vertices[eid, 0]]
        pw = mesh.vertices[mesh.edge_vertices[eid, 1]]
        positions[~is_vertex] = pu + t * (pw - pu)

    # Pair expansion: itertools.combinations over each face's valid
    # point sequence, faces outer — the reference builder's edge order.
    pv = per_face_valid
    dense = lookup[codes[valid]].reshape(nfaces, pv)
    ii, jj = np.triu_indices(pv, k=1)
    # np.triu_indices is row-major over (i, j), i < j — the same order
    # itertools.combinations walks.
    pair_a = dense[:, ii].ravel()
    pair_b = dense[:, jj].ravel()
    delta = positions[pair_a] - positions[pair_b]
    # Explicit composition (dx*dx + dy*dy) + dz*dz, matching the
    # reference builder's scalar arithmetic bit for bit.
    pair_w = np.sqrt(
        delta[:, 0] * delta[:, 0]
        + delta[:, 1] * delta[:, 1]
        + delta[:, 2] * delta[:, 2]
    )

    # Undirected pair t becomes directed records at times 2t and
    # 2t + 1; a stable sort by source then reproduces each adjacency
    # list's append order.
    npairs = int(pair_a.shape[0])
    src_dir = np.empty(2 * npairs, dtype=np.int64)
    dst_dir = np.empty(2 * npairs, dtype=np.int64)
    w_dir = np.empty(2 * npairs)
    src_dir[0::2] = pair_a
    src_dir[1::2] = pair_b
    dst_dir[0::2] = pair_b
    dst_dir[1::2] = pair_a
    w_dir[0::2] = pair_w
    w_dir[1::2] = pair_w
    order = np.argsort(src_dir, kind="stable")
    indices = dst_dir[order]
    weights = w_dir[order]
    indptr = np.zeros(nnodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src_dir, minlength=nnodes), out=indptr[1:])
    csr = CSRGraph(indptr, indices, weights, positions=positions)
    return node_codes, positions, csr
