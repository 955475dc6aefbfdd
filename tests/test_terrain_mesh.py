"""Unit tests for TriangleMesh."""

import math

import numpy as np
import pytest

from repro.errors import MeshError, TerrainError
from repro.geodesic.csr import edge_network_csr
from repro.terrain.dem import DemGrid
from repro.terrain.mesh import TriangleMesh
from repro.terrain.synthetic import fractal_dem


class TestConstruction:
    def test_from_dem_counts(self):
        mesh = TriangleMesh.from_dem(fractal_dem(size=5, seed=1))
        assert mesh.num_vertices == 25
        assert mesh.num_faces == 2 * 4 * 4
        # Euler-ish check for a disc: V - E + F = 1
        assert mesh.num_vertices - mesh.num_edges + mesh.num_faces == 1

    def test_rejects_bad_indices(self):
        with pytest.raises(MeshError):
            TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))

    def test_rejects_degenerate_face(self):
        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        with pytest.raises(MeshError):
            TriangleMesh(v, np.array([[0, 1, 1]]))

    def test_rejects_zero_area_face(self):
        v = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=float)
        with pytest.raises(MeshError):
            TriangleMesh(v, np.array([[0, 1, 2], [0, 1, 3]]))


class TestAdjacency:
    def test_edge_lengths(self, flat_mesh):
        # Grid edges are cell, cell, or diagonal lengths.
        cell = 90.0
        lengths = set(np.round(flat_mesh.edge_lengths, 6))
        assert lengths <= {cell, round(cell * math.sqrt(2), 6)}

    def test_vertex_neighbors_symmetric(self, rough_mesh):
        for v in range(0, rough_mesh.num_vertices, 37):
            for w in rough_mesh.vertex_neighbors[v]:
                assert v in rough_mesh.vertex_neighbors[w]

    def test_face_neighbors_reciprocal(self, rough_mesh):
        fn = rough_mesh.face_neighbors
        for fi in range(0, rough_mesh.num_faces, 17):
            for g in fn[fi]:
                if g >= 0:
                    assert fi in fn[g]

    def test_edge_length_lookup(self, flat_mesh):
        u = 0
        w = flat_mesh.vertex_neighbors[0][0]
        assert flat_mesh.edge_length(u, w) > 0

    def test_edge_length_missing_raises(self, flat_mesh):
        with pytest.raises(MeshError):
            flat_mesh.edge_length(0, flat_mesh.num_vertices - 1)


class TestGeometryQueries:
    def test_surface_area_flat(self, flat_mesh):
        extent = flat_mesh.xy_bounds().measure()
        assert flat_mesh.surface_area() == pytest.approx(extent)

    def test_surface_area_rough_exceeds_flat(self, rough_mesh):
        extent = rough_mesh.xy_bounds().measure()
        assert rough_mesh.surface_area() > extent * 1.05

    def test_locate_face_and_elevation(self, rough_mesh):
        b = rough_mesh.xy_bounds()
        x = (b.lo[0] + b.hi[0]) / 2 + 7.3
        y = (b.lo[1] + b.hi[1]) / 2 - 3.1
        fi = rough_mesh.locate_face(x, y)
        assert 0 <= fi < rough_mesh.num_faces
        z = rough_mesh.elevation_at(x, y)
        zmin, zmax = rough_mesh.vertices[:, 2].min(), rough_mesh.vertices[:, 2].max()
        assert zmin - 1e-9 <= z <= zmax + 1e-9

    def test_locate_face_off_mesh_raises(self, rough_mesh):
        with pytest.raises(TerrainError):
            rough_mesh.locate_face(-1e6, -1e6)

    def test_elevation_matches_vertex(self, rough_mesh):
        vid = rough_mesh.num_vertices // 2
        x, y, z = rough_mesh.vertices[vid]
        assert rough_mesh.elevation_at(x, y) == pytest.approx(z, abs=1e-6)

    def test_nearest_vertex(self, flat_mesh):
        vid = 7
        p = flat_mesh.vertices[vid]
        assert flat_mesh.nearest_vertex(p) == vid
        assert flat_mesh.nearest_vertex(p[:2]) == vid


class TestTopologyQueries:
    def test_boundary_vertices_of_grid(self, flat_mesh):
        boundary = flat_mesh.boundary_vertices()
        # A 9x9 grid has 32 boundary vertices.
        assert len(boundary) == 32

    def test_total_angle_interior_flat(self, flat_mesh):
        interior = set(range(flat_mesh.num_vertices)) - flat_mesh.boundary_vertices()
        vid = next(iter(interior))
        assert flat_mesh.vertex_total_angle(vid) == pytest.approx(2 * math.pi)

    def test_total_angle_cube_corner(self, cube_mesh):
        # Each cube corner has three right angles.
        assert cube_mesh.vertex_total_angle(0) == pytest.approx(3 * math.pi / 2)

    def test_cube_is_closed(self, cube_mesh):
        assert cube_mesh.boundary_vertices() == set()
        # Euler characteristic of a sphere: V - E + F = 2.
        assert cube_mesh.num_vertices - cube_mesh.num_edges + cube_mesh.num_faces == 2


class TestNetworkViews:
    def test_edge_network_shape(self, flat_mesh):
        csr = edge_network_csr(flat_mesh)
        assert csr.num_nodes == flat_mesh.num_vertices
        assert csr.num_edges == 2 * flat_mesh.num_edges

    def test_submesh_faces_full_region(self, rough_mesh):
        faces = rough_mesh.submesh_faces(rough_mesh.xy_bounds())
        assert len(faces) == rough_mesh.num_faces

    def test_submesh_faces_small_region(self, rough_mesh):
        from repro.geometry.primitives import BoundingBox

        b = rough_mesh.xy_bounds()
        small = BoundingBox.around(b.center, float(b.extents[0]) * 0.1)
        faces = rough_mesh.submesh_faces(small)
        assert 0 < len(faces) < rough_mesh.num_faces
