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
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import GeodesicError
from repro.obs.context import active_registry

_EPS = 1e-9
_ANGLE_EPS = 1e-7


def _mesh_tables(mesh):
    """Per-mesh plain-Python access tables for the propagation loop.

    The inner loop reads face vertices, per-slot edge ids, neighbour
    faces and edge lengths hundreds of thousands of times per source;
    numpy scalar indexing dominates at that call rate.  The tables
    hold exactly the same values as the mesh arrays (plain ``float``
    of the same float64 entries), so every computed distance is
    bit-identical to the array-indexing formulation.  Cached on the
    mesh: one build serves every source (each landmark row, every
    fig7 oracle).
    """
    tables = mesh.__dict__.get("_exact_tables")
    if tables is None:
        faces3 = [tuple(int(v) for v in f) for f in mesh.faces]
        fedges3 = [tuple(int(e) for e in row) for row in mesh.face_edges]
        fneigh3 = [tuple(int(g) for g in row) for row in mesh.face_neighbors]
        elen = [float(x) for x in mesh.edge_lengths]
        # Per-vertex neighbour edge lengths aligned with
        # mesh.vertex_neighbors — the vertex-relaxation loop's edges.
        vneigh_len = [
            [mesh.edge_length(v, u) for u in nbrs]
            for v, nbrs in enumerate(mesh.vertex_neighbors)
        ]
        tables = (faces3, fedges3, fneigh3, elen, vneigh_len, {})
        mesh.__dict__["_exact_tables"] = tables
    return tables


@dataclass
class _Window:
    """A window on the directed edge (slot ``slot`` of face ``face``),
    propagating *into* that face.

    The local frame puts the edge's first vertex at (0, 0), its second
    at (L, 0) and the face interior at y > 0; the unfolded
    (pseudo-)source sits at (sx, sy) with sy <= 0.  ``sigma`` is the
    distance already walked from the true source to the pseudo-source.
    """

    face: int
    slot: int
    b0: float
    b1: float
    sx: float
    sy: float
    sigma: float

    def min_key(self) -> float:
        """sigma + shortest straight distance from source to interval."""
        if self.b0 - _EPS <= self.sx <= self.b1 + _EPS:
            reach = abs(self.sy)
        else:
            nearest = self.b0 if self.sx < self.b0 else self.b1
            reach = math.hypot(self.sx - nearest, self.sy)
        return self.sigma + reach

    def dist_to(self, b: float) -> float:
        """sigma + straight distance from source to edge offset ``b``."""
        return self.sigma + math.hypot(self.sx - b, self.sy)


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
        self._boundary = mesh.boundary_vertices()
        (
            self._faces3,
            self._fedges3,
            self._fneigh3,
            self._elen,
            self._vneigh_len,
            self._saddle_cache,
        ) = _mesh_tables(mesh)
        self._seed_source()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _push(self, key: float, kind: str, payload) -> None:
        self._counter += 1
        heapq.heappush(self._heap, (key, self._counter, kind, payload))

    def _seed_source(self) -> None:
        mesh = self.mesh
        s = self.source
        for u, d in zip(mesh.vertex_neighbors[s], self._vneigh_len[s]):
            if d < self.best[u]:
                self.best[u] = d
                self._push(d, "vertex", u)
        self._spawn_pseudo_source(s, 0.0)

    def _is_spreader(self, v: int) -> bool:
        """Whether geodesics may pass *through* vertex ``v``: saddle
        (total angle > 2*pi) or boundary vertices only."""
        if v in self._boundary:
            return True
        cached = self._saddle_cache.get(v)
        if cached is None:
            cached = self.mesh.vertex_total_angle(v) > 2.0 * math.pi + _ANGLE_EPS
            self._saddle_cache[v] = cached
        return cached

    def _spawn_pseudo_source(self, v: int, sigma: float) -> None:
        """Emit windows covering the opposite edge of every face
        incident to ``v``, sourced at ``v`` with offset ``sigma``."""
        faces3 = self._faces3
        for fi in self.mesh.vertex_faces[v]:
            face = faces3[fi]
            # Opposite edge = the slot whose two vertices are not v.
            for slot in range(3):
                if face[slot] != v and face[(slot + 1) % 3] != v:
                    self._emit_window_from_point(fi, slot, v, sigma)
                    break

    def _emit_window_from_point(self, fi: int, slot: int, v: int, sigma: float) -> None:
        """Window on edge ``slot`` of face ``fi`` whose source is mesh
        vertex ``v`` (the apex of that face), covering the whole edge
        and propagating into the neighbouring face."""
        g = self._fneigh3[fi][slot]
        if g < 0:
            return  # boundary edge: nothing beyond it
        face = self._faces3[fi]
        fedges = self._fedges3[fi]
        a = face[slot]
        edge_id = fedges[slot]
        elen = self._elen
        length = elen[edge_id]
        # Slot s of a face is the edge face[s] -> face[(s+1)%3], so the
        # apex v = face[slot+2] reaches a via edge slot+2 (v -> a) and
        # b via edge slot+1 (b -> v) — same edge ids, same floats as
        # the edge_length(v, a) / edge_length(v, b) dict lookups.
        d_a = elen[fedges[(slot + 2) % 3]]
        d_b = elen[fedges[(slot + 1) % 3]]
        # Find the edge inside face g and its direction there.
        g_slot, flipped = self._slot_in_face(g, edge_id, a)
        if flipped:
            d_a, d_b = d_b, d_a
        sx = (d_a * d_a - d_b * d_b + length * length) / (2.0 * length)
        sy2 = d_a * d_a - sx * sx
        sy = -math.sqrt(sy2) if sy2 > 0.0 else 0.0
        self._enqueue_window(
            _Window(face=g, slot=g_slot, b0=0.0, b1=length, sx=sx, sy=sy, sigma=sigma)
        )

    def _slot_in_face(self, g: int, edge_id: int, a: int) -> tuple[int, bool]:
        """Locate ``edge_id`` inside face ``g``.

        Returns (slot, flipped) where ``flipped`` says whether g's
        directed edge starts at a vertex other than ``a`` (i.e. runs
        b->a rather than a->b).
        """
        faces = self._faces3[g]
        for slot, eid in enumerate(self._fedges3[g]):
            if eid == edge_id:
                return slot, faces[slot] != a
        raise GeodesicError(f"edge {edge_id} not found in face {g}")

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------

    def _enqueue_window(self, w: _Window) -> None:
        if w.b1 - w.b0 <= _EPS:
            return
        if self._dominated(w):
            return
        if self.max_windows is not None and self.windows_created >= self.max_windows:
            raise GeodesicError(
                f"window budget of {self.max_windows} exhausted; "
                "the mesh is too large for the exact algorithm"
            )
        self.windows_created += 1
        self._update_endpoint_vertices(w)
        self._push(w.min_key(), "window", w)

    def _edge_endpoints(self, w: _Window) -> tuple[int, int, float]:
        face = self._faces3[w.face]
        a = face[w.slot]
        b = face[(w.slot + 1) % 3]
        length = self._elen[self._fedges3[w.face][w.slot]]
        return a, b, length

    def _dominated(self, w: _Window) -> bool:
        """Safe deletion test (see module docstring)."""
        a, b, length = self._edge_endpoints(w)
        via_a = self.best[a]
        if math.isfinite(via_a) and w.dist_to(w.b1) >= via_a + w.b1 - _EPS:
            return True
        via_b = self.best[b]
        if math.isfinite(via_b) and w.dist_to(w.b0) >= via_b + (length - w.b0) - _EPS:
            return True
        return False

    def _update_vertex(self, v: int, cand: float) -> None:
        if cand < self.best[v] - _EPS:
            self.best[v] = cand
            self._push(cand, "vertex", v)

    def _update_endpoint_vertices(self, w: _Window) -> None:
        a, b, length = self._edge_endpoints(w)
        if w.b0 <= _EPS:
            self._update_vertex(a, w.sigma + math.hypot(w.sx, w.sy))
        if w.b1 >= length - _EPS:
            self._update_vertex(b, w.sigma + math.hypot(w.sx - length, w.sy))

    def _propagate(self, w: _Window) -> None:
        """Push the window across its face onto the two far edges."""
        face = self._faces3[w.face]
        fedges = self._fedges3[w.face]
        elen = self._elen
        slot = w.slot
        c = face[(slot + 2) % 3]
        length = elen[fedges[slot]]
        # Unfold the apex C into the window's frame (interior: y > 0).
        # Edge slot+2 is c->a, edge slot+1 is b->c: same ids (and so
        # the same floats) as edge_length(a, c) / edge_length(b, c).
        d_ac = elen[fedges[(slot + 2) % 3]]
        d_bc = elen[fedges[(slot + 1) % 3]]
        cx = (d_ac * d_ac - d_bc * d_bc + length * length) / (2.0 * length)
        cy2 = d_ac * d_ac - cx * cx
        cy = math.sqrt(cy2) if cy2 > 0.0 else 0.0
        apex = (cx, cy)
        src = (w.sx, w.sy)
        p0 = (w.b0, 0.0)
        p1 = (w.b1, 0.0)

        # Vertex C update when the cone covers the apex.
        if self._in_cone(src, p0, p1, apex):
            self._update_vertex(c, w.sigma + math.hypot(w.sx - cx, w.sy - cy))

        # Far edge 1: B -> C (slot + 1); far edge 2: C -> A (slot + 2).
        self._propagate_onto(w, src, p0, p1, (length, 0.0), apex, (w.slot + 1) % 3)
        self._propagate_onto(w, src, p0, p1, apex, (0.0, 0.0), (w.slot + 2) % 3)

    @staticmethod
    def _cross(o, u, v) -> float:
        return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])

    def _in_cone(self, src, p0, p1, x) -> bool:
        return (
            self._cross(src, p0, x) <= _EPS and self._cross(src, p1, x) >= -_EPS
        )

    def _propagate_onto(self, w: _Window, src, p0, p1, e0, e1, slot: int) -> None:
        """Clip the source cone against the far edge e0→e1 (local
        coordinates) and emit the child window across it."""
        g = self._fneigh3[w.face][slot]
        # Compute the lit parameter interval [t0, t1] along e0->e1.
        # Inside the cone means cross(p0-src, x-src) <= 0 (right of the
        # left ray) and cross(p1-src, x-src) >= 0 (left of the right
        # ray); both constraints are affine in t.
        f0_e0 = self._cross(src, p0, e0)
        f0_e1 = self._cross(src, p0, e1)
        f1_e0 = self._cross(src, p1, e0)
        f1_e1 = self._cross(src, p1, e1)
        t0, t1 = 0.0, 1.0
        # Constraint f0(t) <= 0 where f0 is affine from f0_e0 to f0_e1.
        t0, t1 = self._clip_affine(t0, t1, f0_e0, f0_e1, keep_negative=True)
        if t0 is None:
            return
        t0, t1 = self._clip_affine(t0, t1, f1_e0, f1_e1, keep_negative=False)
        if t0 is None:
            return
        if t1 - t0 <= _EPS:
            return

        edge_id = self._fedges3[w.face][slot]
        length = self._elen[edge_id]
        # Vertex updates for far-edge endpoints hit by the cone.
        face = self._faces3[w.face]
        u = face[slot]
        v = face[(slot + 1) % 3]
        if t0 <= _EPS:
            self._update_vertex(
                u, w.sigma + math.hypot(src[0] - e0[0], src[1] - e0[1])
            )
        if t1 >= 1.0 - _EPS:
            self._update_vertex(
                v, w.sigma + math.hypot(src[0] - e1[0], src[1] - e1[1])
            )
        if g < 0:
            return  # boundary: the path cannot continue beyond
        g_slot, flipped = self._slot_in_face(g, edge_id, u)
        # Source distances to the child edge's endpoints survive
        # unfolding, so re-derive the child-frame source from them.
        d_u = math.hypot(src[0] - e0[0], src[1] - e0[1])
        d_v = math.hypot(src[0] - e1[0], src[1] - e1[1])
        if flipped:
            b0n = length * (1.0 - t1)
            b1n = length * (1.0 - t0)
            d_first, d_second = d_v, d_u
        else:
            b0n = length * t0
            b1n = length * t1
            d_first, d_second = d_u, d_v
        sx = (d_first * d_first - d_second * d_second + length * length) / (2.0 * length)
        sy2 = d_first * d_first - sx * sx
        sy = -math.sqrt(sy2) if sy2 > 0.0 else 0.0
        self._enqueue_window(
            _Window(
                face=g, slot=g_slot, b0=b0n, b1=b1n, sx=sx, sy=sy, sigma=w.sigma
            )
        )

    @staticmethod
    def _clip_affine(t0, t1, f_at_0, f_at_1, keep_negative: bool):
        """Intersect [t0, t1] with {t : f(t) <= 0} (or >= 0), where f
        is affine with the given endpoint values.  Returns (None, None)
        when empty."""
        if keep_negative:
            f_at_0, f_at_1 = -f_at_0, -f_at_1
        # Now keep f(t) >= 0.
        if f_at_0 >= -_EPS and f_at_1 >= -_EPS:
            return t0, t1
        if f_at_0 < 0.0 and f_at_1 < 0.0:
            return None, None
        t_star = f_at_0 / (f_at_0 - f_at_1)
        if f_at_0 < 0.0:
            return max(t0, t_star), t1
        return t0, min(t1, t_star)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def run(self, until_vertex: int | None = None) -> None:
        """Drain the event queue; optionally stop once ``until_vertex``
        is provably final."""
        heap = self._heap
        vertices_settled = 0
        windows_propagated = 0
        try:
            while heap:
                key, _tie, kind, payload = heapq.heappop(heap)
                if until_vertex is not None and key >= self.best[until_vertex] - _EPS:
                    # Everything still queued is at least this long.
                    heapq.heappush(heap, (key, _tie, kind, payload))
                    return
                if kind == "vertex":
                    v = int(payload)
                    bv = self.best[v]
                    if key > bv + _EPS:
                        continue  # stale event
                    vertices_settled += 1
                    # Relax along mesh edges: edge paths are valid surface
                    # paths, and the domination filter's "via a vertex,
                    # then along the edge" alternative relies on them
                    # being materialized here.
                    for w, dl in zip(
                        self.mesh.vertex_neighbors[v], self._vneigh_len[v]
                    ):
                        self._update_vertex(w, bv + dl)
                    if self._is_spreader(v) and v != self.source:
                        self._spawn_pseudo_source(v, bv)
                else:
                    w = payload
                    if self._dominated(w):
                        continue
                    windows_propagated += 1
                    self._propagate(w)
        finally:
            if vertices_settled or windows_propagated:
                reg = active_registry()
                reg.counter("geodesic.exact.vertices_settled").add(
                    vertices_settled
                )
                reg.counter("geodesic.exact.windows_propagated").add(
                    windows_propagated
                )
                from repro.obs.context import active_profiler

                profiler = active_profiler()
                if profiler.enabled:
                    profiler.count(
                        "exact_vertices_settled", vertices_settled
                    )
                    profiler.count(
                        "exact_windows_propagated", windows_propagated
                    )

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
