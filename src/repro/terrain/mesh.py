"""Triangulated surface meshes (TINs).

:class:`TriangleMesh` is the central substrate of the library: DMTM
construction simplifies it, the pathnet subdivides it, MSDN planes
cut through it, and every shortest-path algorithm walks it.  It keeps
full adjacency (vertex↔vertex, edge↔face, face↔face), validates
manifoldness, supports point location / embedding in the xy-plane and
exposes the edge network used by Dijkstra-based distance bounds.
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
        faces: list[tuple[int, int, int]] = []
        for r in range(rows - 1):
            for c in range(cols - 1):
                v00 = r * cols + c
                v01 = v00 + 1
                v10 = v00 + cols
                v11 = v10 + 1
                if (r + c) % 2 == 0:
                    faces.append((v00, v01, v11))
                    faces.append((v00, v11, v10))
                else:
                    faces.append((v00, v01, v10))
                    faces.append((v01, v11, v10))
        return cls(vertices, np.asarray(faces, dtype=np.int64))

    def _build_adjacency(self) -> None:
        n_faces = self.faces.shape[0]
        edge_ids: dict[tuple[int, int], int] = {}
        edge_vertices: list[tuple[int, int]] = []
        edge_faces: list[list[int]] = []
        face_edges = np.empty((n_faces, 3), dtype=np.int64)
        for fi, (a, b, c) in enumerate(self.faces):
            for slot, (u, w) in enumerate(((a, b), (b, c), (c, a))):
                key = (u, w) if u < w else (w, u)
                eid = edge_ids.get(key)
                if eid is None:
                    eid = len(edge_vertices)
                    edge_ids[key] = eid
                    edge_vertices.append(key)
                    edge_faces.append([])
                edge_faces[eid].append(fi)
                face_edges[fi, slot] = eid
        self.edge_ids = edge_ids
        self.edge_vertices = np.asarray(edge_vertices, dtype=np.int64)
        self.face_edges = face_edges
        self.edge_faces = edge_faces
        diffs = (
            self.vertices[self.edge_vertices[:, 0]]
            - self.vertices[self.edge_vertices[:, 1]]
        )
        self.edge_lengths = np.sqrt(np.sum(diffs * diffs, axis=1))

        neighbors: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for u, w in self.edge_vertices:
            neighbors[u].add(int(w))
            neighbors[w].add(int(u))
        self.vertex_neighbors = [sorted(s) for s in neighbors]

        vertex_faces: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for fi, face in enumerate(self.faces):
            for vi in face:
                vertex_faces[int(vi)].append(fi)
        self.vertex_faces = vertex_faces

        # face_neighbors[fi, slot] = face across edge slot, or -1.
        face_neighbors = np.full((n_faces, 3), -1, dtype=np.int64)
        for fi in range(n_faces):
            for slot in range(3):
                for other in self.edge_faces[self.face_edges[fi, slot]]:
                    if other != fi:
                        face_neighbors[fi, slot] = other
        self.face_neighbors = face_neighbors

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

        Memoized per (mesh, vertex) with the scalar loop kept as the
        single source of truth — a vectorized re-derivation could
        round the angle sum differently and flip a borderline saddle
        classification, changing exact geodesics between callers.
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
    # network views
    # ------------------------------------------------------------------

    def edge_network(self) -> list[list[tuple[int, float]]]:
        """Adjacency list of the mesh's edge graph.

        ``adj[v]`` is a list of ``(neighbor, edge_length)`` pairs —
        the network whose Dijkstra distances are the paper's ``dN``.
        """
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.num_vertices)]
        for eid, (u, w) in enumerate(self.edge_vertices):
            length = float(self.edge_lengths[eid])
            adj[int(u)].append((int(w), length))
            adj[int(w)].append((int(u), length))
        return adj

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
