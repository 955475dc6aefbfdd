"""Triangulated surface meshes (TINs).

:class:`TriangleMesh` is the central substrate of the library: DMTM
construction simplifies it, the pathnet subdivides it, MSDN planes
cut through it, and every shortest-path algorithm walks it.  It keeps
full adjacency (vertex↔vertex, edge↔face, face↔face), validates
manifoldness and supports point location / embedding in the xy-plane;
its ``edge_vertices`` and ``edge_lengths`` are the edge network whose
Dijkstra distances are the paper's ``dN``
(:func:`repro.geodesic.csr.edge_network_csr`).
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from repro.errors import GeometryError, MeshError, TerrainError
from repro.geometry.primitives import BoundingBox
from repro.geometry.triangle import barycentric_2d


class TriangleMesh:
    """An indexed triangle mesh embedded in 3D.

    Parameters
    ----------
    vertices:
        (n, 3) float array of positions.
    faces:
        (m, 3) int array of counter-clockwise (seen from above)
        vertex index triples.
    validate:
        Run structural validation after building adjacency.
    """

    def __init__(self, vertices, faces, validate: bool = True):
        v = np.asarray(vertices, dtype=float)
        f = np.asarray(faces, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError(f"vertices must be (n, 3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise MeshError(f"faces must be (m, 3), got {f.shape}")
        if v.shape[0] < 3 or f.shape[0] < 1:
            raise MeshError("a mesh needs at least 3 vertices and 1 face")
        if f.min(initial=0) < 0 or f.max(initial=0) >= v.shape[0]:
            raise MeshError("face indices out of vertex range")
        self.vertices = v
        self.faces = f
        self._build_adjacency()
        self._locator_grid = None
        self._total_angle_cache: dict[int, float] = {}
        self._boundary_cache: set[int] | None = None
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_dem(cls, dem) -> "TriangleMesh":
        """Triangulate a :class:`repro.terrain.dem.DemGrid`.

        Each grid cell is split along alternating diagonals, which
        avoids the directional bias of a single-diagonal split.
        """
        rows, cols = dem.rows, dem.cols
        xs = dem.origin[0] + np.arange(cols) * dem.cell_size
        ys = dem.origin[1] + np.arange(rows) * dem.cell_size
        gx, gy = np.meshgrid(xs, ys)
        vertices = np.column_stack(
            [gx.ravel(), gy.ravel(), dem.heights.ravel()]
        )
        # Corner ids of every cell, row by row; the diagonal alternates
        # with the parity of r + c.
        r, c = np.meshgrid(np.arange(rows - 1), np.arange(cols - 1), indexing="ij")
        v00 = (r * cols + c).ravel()
        v01 = v00 + 1
        v10 = v00 + cols
        v11 = v10 + 1
        even = ((r + c) % 2 == 0).ravel()
        first = np.column_stack((v00, v01, np.where(even, v11, v10)))
        second = np.column_stack((np.where(even, v00, v01), v11, v10))
        faces = np.stack((first, second), axis=1).reshape(-1, 3)
        return cls(vertices, faces)

    def _build_adjacency(self) -> None:
        """Edge, face and vertex adjacency in array passes over the
        half-edges ``(a, b), (b, c), (c, a)`` of every face in face
        order: an edge's id is the rank of its first half-edge, and
        every per-edge and per-vertex list keeps face order."""
        faces = self.faces
        n = self.num_vertices
        tails = faces.ravel()
        heads = faces[:, [1, 2, 0]].ravel()
        lo = np.minimum(tails, heads)
        hi = np.maximum(tails, heads)
        _keys, first, inverse = np.unique(
            lo * n + hi, return_index=True, return_inverse=True
        )
        # Edge ids in order of first appearance.
        by_first = np.argsort(first, kind="stable")
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(by_first.size)
        half_edge = rank[inverse.ravel()]
        starts = first[by_first]
        self.edge_vertices = np.column_stack((lo[starts], hi[starts]))
        self.edge_ids = dict(
            zip(
                zip(self.edge_vertices[:, 0].tolist(), self.edge_vertices[:, 1].tolist()),
                range(starts.size),
            )
        )
        self.face_edges = half_edge.reshape(-1, 3)
        # Half-edges grouped by edge, face order kept within an edge.
        order = np.argsort(half_edge, kind="stable")
        run_faces = order // 3
        counts = np.bincount(half_edge, minlength=starts.size)
        self.edge_faces = _split(run_faces.tolist(), counts)
        diffs = (
            self.vertices[self.edge_vertices[:, 0]]
            - self.vertices[self.edge_vertices[:, 1]]
        )
        self.edge_lengths = np.sqrt(np.sum(diffs * diffs, axis=1))

        # Both directions of every edge sorted by (vertex, neighbour),
        # a degenerate edge (v, v) once (a plain np.unique would import
        # numpy.ma, a megabyte of module); vertex_edges[v][i] is the id
        # of the edge to vertex_neighbors[v][i].
        u, w = self.edge_vertices.T
        pairs = np.concatenate((u * n + w, w * n + u))
        by_pair = np.argsort(pairs, kind="stable")
        pairs = pairs[by_pair]
        once = np.concatenate(([True], pairs[1:] != pairs[:-1]))
        pairs = pairs[once]
        per_vertex = np.bincount(pairs // n, minlength=n)
        self.vertex_neighbors = _split((pairs % n).tolist(), per_vertex)
        self.vertex_edges = _split((by_pair[once] % starts.size).tolist(), per_vertex)
        self.vertex_faces = _split(
            (np.argsort(tails, kind="stable") // 3).tolist(),
            np.bincount(tails, minlength=n),
        )

        # face_neighbors[fi, slot]: the last face other than fi listed
        # for the slot's edge, or -1.  An edge's faces ascend, so that
        # is its last face, except for the last face itself: there it
        # is the face listed before the last face's first entry.
        runs = half_edge[order]
        ends = np.cumsum(counts)
        last = run_faces[ends - 1]
        first_of_last = np.searchsorted(
            runs * len(faces) + run_faces,
            np.arange(counts.size) * len(faces) + last,
        )
        before_last = np.where(
            first_of_last > ends - counts, run_faces[first_of_last - 1], -1
        )
        across = np.empty_like(order)
        across[order] = np.where(
            run_faces == last[runs], before_last[runs], last[runs]
        )
        self.face_neighbors = across.reshape(-1, 3)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def num_faces(self) -> int:
        return int(self.faces.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_vertices.shape[0])

    def xy_bounds(self) -> BoundingBox:
        return BoundingBox.of_points(self.vertices[:, :2])

    def bounds(self) -> BoundingBox:
        return BoundingBox.of_points(self.vertices)

    def surface_area(self) -> float:
        v = self.vertices
        f = self.faces
        cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        return float(np.sum(np.sqrt(np.sum(cross * cross, axis=1))) / 2.0)

    def face_points(self, fi: int) -> np.ndarray:
        """The (3, 3) array of a face's vertex positions."""
        return self.vertices[self.faces[fi]]

    def edge_length(self, u: int, w: int) -> float:
        key = (u, w) if u < w else (w, u)
        eid = self.edge_ids.get(key)
        if eid is None:
            raise MeshError(f"no edge between vertices {u} and {w}")
        return float(self.edge_lengths[eid])

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Structural checks: finite coordinates, no degenerate faces,
        edge-manifold, consistently usable as a height field network."""
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("non-finite vertex coordinates")
        v = self.vertices
        f = self.faces
        if np.any(f[:, 0] == f[:, 1]) or np.any(f[:, 1] == f[:, 2]) or np.any(
            f[:, 0] == f[:, 2]
        ):
            raise MeshError("degenerate face (repeated vertex index)")
        cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        areas = np.sqrt(np.sum(cross * cross, axis=1)) / 2.0
        if np.any(areas <= 0.0):
            raise MeshError("zero-area face")
        for eid, incident in enumerate(self.edge_faces):
            if len(incident) > 2:
                u, w = self.edge_vertices[eid]
                raise MeshError(
                    f"non-manifold edge ({u}, {w}) shared by {len(incident)} faces"
                )

    def boundary_vertices(self) -> set[int]:
        """Vertices on a boundary edge (edge with a single face).

        Cached per mesh: the exact propagation's per-mesh tables and
        its reference twin consult it, and the answer only depends on
        immutable adjacency.  Callers must treat the returned set as
        read-only.
        """
        if self._boundary_cache is None:
            result: set[int] = set()
            for eid, incident in enumerate(self.edge_faces):
                if len(incident) == 1:
                    u, w = self.edge_vertices[eid]
                    result.add(int(u))
                    result.add(int(w))
            self._boundary_cache = result
        return self._boundary_cache

    def vertex_total_angle(self, vi: int) -> float:
        """Sum of incident face angles at a vertex.

        Interior vertices with total angle > 2*pi are *saddle*
        vertices; exact geodesics may pass through them, which is why
        the exact algorithm spawns pseudo-sources there.

        Memoized per (mesh, vertex).  This scalar loop is the
        bit-identity oracle of
        :func:`repro.geodesic.exact._total_angles`, which flags the
        saddles of a whole mesh in one array pass: a sum rounded
        differently could flip a borderline saddle and change exact
        geodesics.
        """
        cached = self._total_angle_cache.get(vi)
        if cached is not None:
            return cached
        total = 0.0
        p = self.vertices[vi]
        for fi in self.vertex_faces[vi]:
            face = self.faces[fi]
            others = [int(x) for x in face if int(x) != vi]
            u = self.vertices[others[0]] - p
            w = self.vertices[others[1]] - p
            nu = np.linalg.norm(u)
            nw = np.linalg.norm(w)
            if nu == 0.0 or nw == 0.0:
                continue
            cosang = float(np.clip(np.dot(u, w) / (nu * nw), -1.0, 1.0))
            total += math.acos(cosang)
        self._total_angle_cache[vi] = total
        return total

    # ------------------------------------------------------------------
    # point location / embedding
    # ------------------------------------------------------------------

    def _locator(self):
        """Lazily build a uniform grid of face indices keyed by xy cell."""
        if self._locator_grid is None:
            bounds = self.xy_bounds()
            n_cells = max(1, int(math.sqrt(self.num_faces)))
            ext = np.maximum(bounds.extents, 1e-9)
            cell = float(max(ext) / n_cells)
            buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
            lo = np.asarray(bounds.lo)
            for fi in range(self.num_faces):
                pts = self.face_points(fi)[:, :2]
                cmin = np.floor((pts.min(axis=0) - lo) / cell).astype(int)
                cmax = np.floor((pts.max(axis=0) - lo) / cell).astype(int)
                for cx in range(cmin[0], cmax[0] + 1):
                    for cy in range(cmin[1], cmax[1] + 1):
                        buckets[(cx, cy)].append(fi)
            self._locator_grid = (lo, cell, buckets)
        return self._locator_grid

    def locate_face(self, x: float, y: float) -> int:
        """Face whose xy-projection contains (x, y).

        Raises :class:`TerrainError` when the point is off the mesh.
        """
        lo, cell, buckets = self._locator()
        cx = int(math.floor((x - lo[0]) / cell))
        cy = int(math.floor((y - lo[1]) / cell))
        for fi in buckets.get((cx, cy), ()):
            a, b, c = self.face_points(fi)
            try:
                w = barycentric_2d((x, y), a, b, c)
            except GeometryError:
                # Degenerate (zero-area) face: cannot contain the point.
                continue
            if min(w) >= -1e-9:
                return fi
        # Fall back to neighbouring buckets (boundary effects).
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for fi in buckets.get((cx + dx, cy + dy), ()):
                    a, b, c = self.face_points(fi)
                    try:
                        w = barycentric_2d((x, y), a, b, c)
                    except GeometryError:
                        continue
                    if min(w) >= -1e-9:
                        return fi
        raise TerrainError(f"point ({x}, {y}) is not on the mesh")

    def elevation_at(self, x: float, y: float) -> float:
        """Surface elevation above (x, y) by barycentric interpolation."""
        fi = self.locate_face(x, y)
        a, b, c = self.face_points(fi)
        wa, wb, wc = barycentric_2d((x, y), a, b, c)
        return float(wa * a[2] + wb * b[2] + wc * c[2])

    def surface_point(self, x: float, y: float) -> np.ndarray:
        """The 3D point on the surface above (x, y)."""
        return np.array([x, y, self.elevation_at(x, y)])

    def nearest_vertex(self, p) -> int:
        """Index of the vertex nearest to ``p`` (2D or 3D query)."""
        p = np.asarray(p, dtype=float)
        if p.shape[-1] == 2:
            d = self.vertices[:, :2] - p
        else:
            d = self.vertices - p
        return int(np.argmin(np.sum(d * d, axis=1)))

    # ------------------------------------------------------------------
    # face selection
    # ------------------------------------------------------------------

    def submesh_faces(self, region: BoundingBox) -> np.ndarray:
        """Indices of faces whose xy-MBR intersects ``region``."""
        region = region.xy() if region.dim == 3 else region
        v = self.vertices
        fx = v[self.faces, 0]
        fy = v[self.faces, 1]
        lo = np.asarray(region.lo)
        hi = np.asarray(region.hi)
        keep = (
            (fx.min(axis=1) <= hi[0])
            & (fx.max(axis=1) >= lo[0])
            & (fy.min(axis=1) <= hi[1])
            & (fy.max(axis=1) >= lo[1])
        )
        return np.nonzero(keep)[0]


def _split(flat: list, counts: np.ndarray) -> list[list]:
    """``flat`` cut into consecutive lists of ``counts`` items each."""
    out = []
    start = 0
    for end in np.cumsum(counts).tolist():
        out.append(flat[start:end])
        start = end
    return out
