"""Exact surface shortest paths by window propagation.

This is our stand-in for the Chen & Han algorithm [CH90] the paper
uses as the exact baseline (via the Kaneva–O'Rourke implementation).
It follows the modern formulation of that algorithm family
("continuous Dijkstra" / improved Chen-Han): geodesics are tracked as
*windows* — intervals on mesh edges together with the planar-unfolded
position of their (pseudo-)source — propagated face by face in
priority order, splitting at vertices and spawning *pseudo-sources*
at saddle and boundary vertices, which are the only vertices an
interior shortest path can pass through.

Correctness notes
-----------------
* Every window encodes a family of genuine surface paths, so every
  distance it reports is an upper bound; exhaustive propagation makes
  the minimum exact.
* The only pruning applied is a *domination* test that is provably
  safe: a window on edge (A, B) with unfolded source S and interval
  [b0, b1] is dominated by the alternative "go to A first, then along
  the edge" when ``sigma + |S - P(b)| >= best[A] + b`` for all b in
  the interval.  Because that difference is monotone non-increasing
  in b, checking b = b1 suffices (symmetrically b = b0 for B).  Since
  ``best[]`` values are themselves lengths of valid paths, deleting a
  dominated window never loses the optimum.
* Like Chen & Han, worst-case work is quadratic in mesh size — which
  is exactly the blow-up Figure 7 of the paper demonstrates.

Implementation
--------------
The propagation is one flat event loop (:meth:`ExactGeodesic._drain`)
over plain tuples: a window is ``(face, slot, b0, b1, sx, sy, sigma)``
and a heap entry ``(key, counter, kind, payload)``.  Everything that
depends only on the mesh — each window edge's apex unfolding and far
edges, the windows a pseudo-source emits, the vertex edges — is
computed once per mesh by :func:`_mesh_tables`.  The loop evaluates
the same float expressions, in the same order, as the one-method-per-
step formulation kept as
:class:`repro.testkit.reference.ExactGeodesicReference`, so both pop
the same events and produce the same bits (docs/performance.md,
"Exact window propagation").
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.errors import GeodesicError
from repro.obs.context import current

_EPS = 1e-9
_ANGLE_EPS = 1e-7


def _mesh_tables(mesh):
    """Per-mesh tables of the propagation loop, built once per mesh.

    ``(rows, spawn, vadj, spreader)``:

    * ``rows[f][s]`` — a window on edge ``s`` of face ``f`` (first
      vertex at (0, 0), second at (L, 0), the face at y > 0):
      ``(a, b, c, L, cx, cy, g1, s1, flip1, L1, g2, s2, flip2, L2)``,
      its endpoints ``a``, ``b``, the apex ``c`` unfolded to
      ``(cx, cy)``, and for each far edge (1: b→c, 2: c→a) the face
      across it (-1 on the boundary), the edge's slot in that face,
      whether that face runs it the other way, and its length;
    * ``spawn[v]`` — the windows a pseudo-source at ``v`` emits, one
      per incident face with a face across its opposite edge:
      ``(g, slot, a, b, L, sx, sy, |sa|, |sb|, reach)``, the edge
      ``slot`` of ``g`` with endpoints ``a``, ``b``, the source
      unfolded into its frame, the distances to both endpoints and the
      window's heap key less ``sigma``;
    * ``vadj[v]`` — ``(u, |vu|)`` for each mesh edge at ``v``;
    * ``spreader[v]`` — whether geodesics may pass through ``v``:
      a boundary vertex, or a saddle, an interior vertex whose total
      angle (:func:`_total_angles`) exceeds 2*pi.

    The floats come from the same IEEE operations on the same float64
    edge lengths as the per-window formulas they replace, so they are
    bit-identical to what the loop would compute each time.  The
    tables are published by one store.
    """
    tables = mesh.__dict__.get("_exact_tables")
    if tables is not None:
        return tables
    faces = mesh.faces
    face_edges = mesh.face_edges
    neighbors = mesh.face_neighbors
    nxt = [1, 2, 0]
    prv = [2, 0, 1]
    length = mesh.edge_lengths[face_edges]  # (m, 3): edge s of face f
    d_bc = length[:, nxt]
    d_ac = length[:, prv]
    # A zero-length edge (possible only in an unvalidated mesh) gets
    # inf/nan entries here; the loop never reads them, because a window
    # narrower than _EPS is dropped before its unfolding is used.
    with np.errstate(divide="ignore", invalid="ignore"):
        cx = (d_ac * d_ac - d_bc * d_bc + length * length) / (2.0 * length)
        # A pseudo-source at the apex c emits a window on edge s into
        # the face across it, unfolded in that face's frame: the apex
        # unfolding as is, or with the apex distances swapped when
        # that face runs the edge the other way.
        sx_flip = (d_bc * d_bc - d_ac * d_ac + length * length) / (2.0 * length)
    cy2 = d_ac * d_ac - cx * cx
    cy = np.where(cy2 > 0.0, np.sqrt(np.where(cy2 > 0.0, cy2, 0.0)), 0.0)
    # The edge's slot in the face across it, and its direction there.
    across = np.where(neighbors >= 0, neighbors, 0)
    slot_in = (face_edges[across] == face_edges[:, :, None]).argmax(axis=2)
    flip = faces[across, slot_in] != faces
    sy2_flip = d_bc * d_bc - sx_flip * sx_flip
    spawn_sx = np.where(flip, sx_flip, cx)
    spawn_sy2 = np.where(flip, sy2_flip, cy2)
    spawn_sy = np.where(
        spawn_sy2 > 0.0, -np.sqrt(np.where(spawn_sy2 > 0.0, spawn_sy2, 0.0)), 0.0
    )
    spawn_a = np.where(flip, faces[:, nxt], faces)
    spawn_b = np.where(flip, faces, faces[:, nxt])

    # Vertex ids, face ids and edge lengths enter the tables as one
    # shared object each, looked up by index, instead of a fresh
    # object per entry (``ids[-1]`` is the -1 of a boundary edge).
    ids = list(range(max(mesh.num_vertices, mesh.num_faces))) + [-1]
    lengths = mesh.edge_lengths.tolist()

    def column(values, table=None):
        values = values.ravel().tolist()
        return values if table is None else [table[i] for i in values]

    columns = [
        column(faces, ids),
        column(faces[:, nxt], ids),
        column(faces[:, prv], ids),
        column(face_edges, lengths),
        column(cx),
        column(cy),
        column(neighbors[:, nxt], ids),
        column(slot_in[:, nxt]),
        column(flip[:, nxt]),
        column(face_edges[:, nxt], lengths),
        column(neighbors[:, prv], ids),
        column(slot_in[:, prv]),
        column(flip[:, prv]),
        column(face_edges[:, prv], lengths),
    ]
    flat = list(zip(*columns))
    rows = [tuple(flat[k : k + 3]) for k in range(0, len(flat), 3)]

    hypot = math.hypot
    emitted = []
    spawn_columns = (
        column(neighbors, ids), column(slot_in), column(spawn_a, ids),
        column(spawn_b, ids), column(face_edges, lengths),
        column(spawn_sx), column(spawn_sy),
    )
    for g, g_slot, a, b, ln, sx, sy in zip(*spawn_columns):
        if g < 0:
            emitted.append(None)
            continue
        if 0.0 - _EPS <= sx <= ln + _EPS:
            reach = abs(sy)
        else:
            reach = hypot(sx - (0.0 if sx < 0.0 else ln), sy)
        emitted.append(
            (g, g_slot, a, b, ln, sx, sy, hypot(sx, sy), hypot(sx - ln, sy), reach)
        )
    faces3 = faces.tolist()
    spawn = []
    for v, incident in enumerate(mesh.vertex_faces):
        out = []
        for fi in incident:
            face = faces3[fi]
            # The edge opposite v: the slot with neither endpoint at v.
            for slot in range(3):
                if face[slot] != v and face[(slot + 1) % 3] != v:
                    window = emitted[3 * fi + slot]
                    if window is not None:
                        out.append(window)
                    break
        spawn.append(tuple(out))
    vadj = [
        tuple((ids[u], lengths[e]) for u, e in zip(nbrs, eids))
        for nbrs, eids in zip(mesh.vertex_neighbors, mesh.vertex_edges)
    ]
    saddle = 2.0 * math.pi + _ANGLE_EPS
    spreader = [total > saddle for total in _total_angles(mesh)]
    for v in mesh.boundary_vertices():
        spreader[v] = True
    tables = (rows, spawn, vadj, spreader)
    mesh.__dict__["_exact_tables"] = tables
    return tables


def _total_angles(mesh) -> list[float]:
    """:meth:`~repro.terrain.mesh.TriangleMesh.vertex_total_angle` of
    every vertex in one pass over the face corners: the corner's two
    edge vectors in face order, norms ``sqrt(x·x)`` and the cosine
    ``u·w / (|u| |w|)`` as stacked ``matmul`` dots (the BLAS dot of
    ``np.linalg.norm`` and ``np.dot``), the same clip, ``math.acos``
    per corner and per-vertex sums in face order, so every total
    equals the scalar one bit for bit.  A corner with a zero-length
    edge adds ``acos(1.0) = 0.0``, which leaves a sum unchanged, where
    the scalar loop skips it."""
    faces = mesh.faces
    vertices = mesh.vertices
    corners = faces.ravel()
    others = faces[:, [1, 0, 0]].ravel(), faces[:, [2, 2, 1]].ravel()
    u = vertices[others[0]] - vertices[corners]
    w = vertices[others[1]] - vertices[corners]
    left = np.concatenate((u, w, u))
    right = np.concatenate((u, w, w))
    dot = np.matmul(left[:, np.newaxis, :], right[:, :, np.newaxis]).reshape(3, -1)
    norm_u, norm_w = np.sqrt(dot[0]), np.sqrt(dot[1])
    live = (norm_u != 0.0) & (norm_w != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.clip(dot[2] / (norm_u * norm_w), -1.0, 1.0)
    totals = [0.0] * mesh.num_vertices
    acos = math.acos
    for v, c in zip(corners.tolist(), np.where(live, cos, 1.0).tolist()):
        totals[v] += acos(c)
    return totals


class ExactGeodesic:
    """Single-source exact geodesic distances from a mesh vertex.

    Usage::

        geo = ExactGeodesic(mesh, source_vertex)
        d = geo.distance_to(target_vertex)

    ``distance_to`` runs the propagation lazily until the target's
    distance is provably final, so cheap nearby queries stay cheap.
    """

    def __init__(self, mesh, source: int, max_windows: int | None = None):
        if not 0 <= source < mesh.num_vertices:
            raise GeodesicError(f"source vertex {source} out of range")
        self.mesh = mesh
        self.source = int(source)
        self.max_windows = max_windows
        self.windows_created = 0
        # Plain Python list: the loop reads/writes single entries only,
        # and list access is several times cheaper than numpy scalar
        # indexing.  Python floats are the same float64 values.
        self.best: list[float] = [math.inf] * mesh.num_vertices
        self.best[source] = 0.0
        self._heap: list[tuple[float, int, str, object]] = []
        self._counter = 0
        self._tables = _mesh_tables(mesh)
        _rows, spawn, vadj, _spreader = self._tables
        # Seed: the source's edge neighbours, then its pseudo-source
        # windows (a drain that stops before its first pop).
        best = self.best
        for u, d in vadj[self.source]:
            if d < best[u]:
                best[u] = d
                self._counter += 1
                heapq.heappush(self._heap, (d, self._counter, "vertex", u))
        self._drain(self.source, spawn[self.source], 0.0)

    def _drain(
        self, until_vertex: int | None, emit=(), emit_sigma: float = 0.0
    ) -> None:
        """The event loop.

        Enqueues the ``spawn`` windows ``emit`` sourced at
        ``emit_sigma`` first, then pops events until the queue is empty
        or, with ``until_vertex`` set, until the smallest key shows that
        vertex's distance is final.  A settled spreader vertex hands
        its ``spawn`` windows to the top of the next iteration.
        """
        rows, spawn, vadj, spreader = self._tables
        best = self.best
        heap = self._heap
        push = heapq.heappush
        pop = heapq.heappop
        hypot = math.hypot
        sqrt = math.sqrt
        inf = math.inf
        eps = _EPS
        one_eps = 1.0 - _EPS
        source = self.source
        budget = inf if self.max_windows is None else self.max_windows
        counter = self._counter
        created = self.windows_created
        vertices_settled = 0
        windows_propagated = 0
        try:
            while True:
                if emit:
                    # Pseudo-source windows: whole edges, b0 = 0, b1 = L.
                    sigma = emit_sigma
                    for g, g_slot, a, b, ln, sx, sy, d_a, d_b, reach in emit:
                        if ln <= eps:
                            continue
                        via = best[a]
                        if via < inf and sigma + d_b >= via + ln - eps:
                            continue
                        via = best[b]
                        if via < inf and sigma + d_a >= via + ln - eps:
                            continue
                        if created >= budget:
                            raise GeodesicError(
                                f"window budget of {self.max_windows} exhausted; "
                                "the mesh is too large for the exact algorithm"
                            )
                        created += 1
                        cand = sigma + d_a
                        if cand < best[a] - eps:
                            best[a] = cand
                            counter += 1
                            push(heap, (cand, counter, "vertex", a))
                        cand = sigma + d_b
                        if cand < best[b] - eps:
                            best[b] = cand
                            counter += 1
                            push(heap, (cand, counter, "vertex", b))
                        counter += 1
                        window = (g, g_slot, 0.0, ln, sx, sy, sigma)
                        push(heap, (sigma + reach, counter, "window", window))
                    emit = ()
                if not heap or (
                    until_vertex is not None and heap[0][0] >= best[until_vertex] - eps
                ):
                    # Everything still queued is at least this long.
                    return
                key, _tie, kind, payload = pop(heap)

                if kind == "vertex":
                    bv = best[payload]
                    if key > bv + eps:
                        continue  # stale event
                    vertices_settled += 1
                    # Relax along mesh edges: edge paths are valid
                    # surface paths, and the domination test's "via a
                    # vertex, then along the edge" relies on them.
                    for u, dl in vadj[payload]:
                        cand = bv + dl
                        if cand < best[u] - eps:
                            best[u] = cand
                            counter += 1
                            push(heap, (cand, counter, "vertex", u))
                    if payload != source and spreader[payload]:
                        emit = spawn[payload]
                        emit_sigma = bv
                    continue

                face, slot, b0, b1, sx, sy, sigma = payload
                (a, b, c, length, cx, cy,
                 g1, s1, flip1, len1, g2, s2, flip2, len2) = rows[face][slot]
                # Domination, re-checked: best[] may have improved
                # since the window was queued.
                via = best[a]
                if via < inf and sigma + hypot(sx - b1, sy) >= via + b1 - eps:
                    continue
                via = best[b]
                if (
                    via < inf
                    and sigma + hypot(sx - b0, sy) >= via + (length - b0) - eps
                ):
                    continue
                windows_propagated += 1
                # Cross products of the cone's rays S->(b0, 0) and
                # S->(b1, 0) with S->X for the apex C, B = (L, 0) and
                # A = (0, 0): X is inside the cone when the first is
                # <= 0 and the second >= 0.
                neg_sy = 0.0 - sy
                dx0 = b0 - sx
                dx1 = b1 - sx
                dxc = cx - sx
                dyc = cy - sy
                f0c = dx0 * dyc - neg_sy * dxc
                f1c = dx1 * dyc - neg_sy * dxc
                d_c = hypot(dxc, dyc)
                if f0c <= eps and f1c >= -eps:
                    cand = sigma + d_c
                    if cand < best[c] - eps:
                        best[c] = cand
                        counter += 1
                        push(heap, (cand, counter, "vertex", c))
                dxb = length - sx
                dxa = 0.0 - sx
                f0b = dx0 * neg_sy - neg_sy * dxb
                f1b = dx1 * neg_sy - neg_sy * dxb
                f0a = dx0 * neg_sy - neg_sy * dxa
                f1a = dx1 * neg_sy - neg_sy * dxa
                d_b = hypot(dxb, sy)
                d_a = hypot(sx, sy)
                # Far edge 1 runs B -> C, far edge 2 runs C -> A.
                for g, g_slot, flip, ln, u, v, f0u, f0v, f1u, f1v, d_u, d_v in (
                    (g1, s1, flip1, len1, b, c, f0b, f0c, f1b, f1c, d_b, d_c),
                    (g2, s2, flip2, len2, c, a, f0c, f0a, f1c, f1a, d_c, d_a),
                ):
                    # The lit part [t0, t1] of the far edge u -> v: both
                    # cone constraints are affine in t.
                    t0 = 0.0
                    t1 = 1.0
                    p = -f0u
                    q = -f0v
                    if not (p >= -eps and q >= -eps):
                        if p < 0.0 and q < 0.0:
                            continue
                        t_star = p / (p - q)
                        if p < 0.0:
                            if t_star > t0:
                                t0 = t_star
                        elif t_star < t1:
                            t1 = t_star
                    if not (f1u >= -eps and f1v >= -eps):
                        if f1u < 0.0 and f1v < 0.0:
                            continue
                        t_star = f1u / (f1u - f1v)
                        if f1u < 0.0:
                            if t_star > t0:
                                t0 = t_star
                        elif t_star < t1:
                            t1 = t_star
                    if t1 - t0 <= eps:
                        continue
                    if t0 <= eps:
                        cand = sigma + d_u
                        if cand < best[u] - eps:
                            best[u] = cand
                            counter += 1
                            push(heap, (cand, counter, "vertex", u))
                    if t1 >= one_eps:
                        cand = sigma + d_v
                        if cand < best[v] - eps:
                            best[v] = cand
                            counter += 1
                            push(heap, (cand, counter, "vertex", v))
                    if g < 0:
                        continue  # boundary: the path cannot continue
                    # The child window in g's frame, its source
                    # re-derived from the distances to the edge's ends.
                    if flip:
                        cb0 = ln * (1.0 - t1)
                        cb1 = ln * (1.0 - t0)
                        first, second = d_v, d_u
                        ca, cb = v, u
                    else:
                        cb0 = ln * t0
                        cb1 = ln * t1
                        first, second = d_u, d_v
                        ca, cb = u, v
                    if cb1 - cb0 <= eps:
                        continue
                    csx = (first * first - second * second + ln * ln) / (2.0 * ln)
                    sy2 = first * first - csx * csx
                    csy = -sqrt(sy2) if sy2 > 0.0 else 0.0
                    via = best[ca]
                    if via < inf and sigma + hypot(csx - cb1, csy) >= via + cb1 - eps:
                        continue
                    via = best[cb]
                    if (
                        via < inf
                        and sigma + hypot(csx - cb0, csy) >= via + (ln - cb0) - eps
                    ):
                        continue
                    if created >= budget:
                        raise GeodesicError(
                            f"window budget of {self.max_windows} exhausted; "
                            "the mesh is too large for the exact algorithm"
                        )
                    created += 1
                    if cb0 <= eps:
                        cand = sigma + hypot(csx, csy)
                        if cand < best[ca] - eps:
                            best[ca] = cand
                            counter += 1
                            push(heap, (cand, counter, "vertex", ca))
                    if cb1 >= ln - eps:
                        cand = sigma + hypot(csx - ln, csy)
                        if cand < best[cb] - eps:
                            best[cb] = cand
                            counter += 1
                            push(heap, (cand, counter, "vertex", cb))
                    if cb0 - eps <= csx <= cb1 + eps:
                        reach = abs(csy)
                    else:
                        reach = hypot(csx - (cb0 if csx < cb0 else cb1), csy)
                    counter += 1
                    window = (g, g_slot, cb0, cb1, csx, csy, sigma)
                    push(heap, (sigma + reach, counter, "window", window))
        finally:
            self._counter = counter
            self.windows_created = created
            if vertices_settled or windows_propagated:
                obs = current()
                obs.count("geodesic.exact.vertices_settled", vertices_settled)
                obs.count("geodesic.exact.windows_propagated", windows_propagated)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def run(self, until_vertex: int | None = None) -> None:
        """Drain the event queue; optionally stop once ``until_vertex``
        is provably final."""
        self._drain(until_vertex)

    def distance_to(self, target: int) -> float:
        """Exact surface distance from the source to ``target``."""
        if not 0 <= target < self.mesh.num_vertices:
            raise GeodesicError(f"target vertex {target} out of range")
        self.run(until_vertex=target)
        d = float(self.best[target])
        if not math.isfinite(d):
            raise GeodesicError(
                f"vertex {target} unreachable from {self.source}"
            )
        return d

    def distances(self) -> np.ndarray:
        """Exact distances to every vertex (full propagation)."""
        self.run()
        return np.asarray(self.best, dtype=float)


def exact_surface_distance(
    mesh, source: int, target: int, max_windows: int | None = None
) -> float:
    """Convenience wrapper: exact ``dS`` between two mesh vertices."""
    return ExactGeodesic(mesh, source, max_windows=max_windows).distance_to(target)
