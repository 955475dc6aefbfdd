"""Failure injection: corrupted storage, hostile inputs, resource
limits.  A library is judged by how it fails, not only how it works."""

import numpy as np
import pytest

from repro.errors import (
    GeodesicError,
    MeshError,
    MultiresError,
    StorageError,
    TerrainError,
)
from repro.storage.pages import PageManager


class TestCorruptStorage:
    def test_reading_unallocated_page(self):
        pm = PageManager()
        with pytest.raises(StorageError):
            pm.read(0)

    @pytest.fixture(scope="class")
    def ddm_bytes(self, tmp_path_factory):
        from repro.multires.persist import save_history
        from repro.simplification.collapse import build_collapse_history
        from repro.terrain.mesh import TriangleMesh
        from repro.terrain.synthetic import fractal_dem

        mesh = TriangleMesh.from_dem(fractal_dem(size=5, seed=1))
        history = build_collapse_history(mesh)
        path = tmp_path_factory.mktemp("ddm") / "ddm.bin"
        save_history(history, path)
        return path, path.read_bytes()

    def test_corrupt_ddm_file(self, ddm_bytes):
        from repro.multires.persist import load_history

        path, data = ddm_bytes
        # Truncate mid-node: validate() must catch it, typed.
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(MultiresError):
            load_history(path)
        path.write_bytes(data)

    def test_ddm_structural_byte_corruption_detected(self, ddm_bytes):
        from repro.multires.persist import load_history, validate

        path, data = ddm_bytes
        validate(data)  # pristine file passes
        # Inflate the node count in the header: the framed walk must
        # run off the end and raise the typed error, never a bare
        # struct.error.
        corrupt = bytearray(data)
        corrupt[8] ^= 0xFF  # low byte of u64 num_leaves/num_nodes frame
        corrupt[16] ^= 0xFF
        path.write_bytes(bytes(corrupt))
        with pytest.raises(MultiresError):
            load_history(path)
        path.write_bytes(data)

    def test_ddm_bad_magic_and_trailing_garbage(self, ddm_bytes):
        from repro.multires.persist import validate

        _path, data = ddm_bytes
        with pytest.raises(MultiresError, match="magic"):
            validate(b"NOTADDM1" + data[8:])
        with pytest.raises(MultiresError, match="trailing"):
            validate(data + b"\x00garbage")

    def test_ddm_root_out_of_range(self, ddm_bytes):
        from repro.multires.persist import _HEAD, _MAGIC, validate

        _path, data = ddm_bytes
        corrupt = bytearray(data)
        # First root id lives right after magic + header + root count.
        offset = len(_MAGIC) + _HEAD.size + 8
        corrupt[offset : offset + 8] = (2**63 - 1).to_bytes(8, "little")
        with pytest.raises(MultiresError, match="root"):
            validate(bytes(corrupt))

    def test_ddm_roundtrip_still_loads(self, ddm_bytes):
        from repro.multires.persist import load_history

        path, data = ddm_bytes
        path.write_bytes(data)
        history = load_history(path)
        assert history.num_leaves > 0


class TestHostileMeshes:
    def test_non_manifold_rejected(self):
        from repro.terrain.mesh import TriangleMesh

        # Three faces share one edge.
        v = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 1], [1, 1, 1]],
            dtype=float,
        )
        f = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        with pytest.raises(MeshError):
            TriangleMesh(v, f)

    def test_nan_vertices_rejected(self):
        from repro.terrain.mesh import TriangleMesh

        v = np.array([[0, 0, 0], [1, 0, np.nan], [0, 1, 0]], dtype=float)
        with pytest.raises(MeshError):
            TriangleMesh(v, np.array([[0, 1, 2]]))

    def test_disconnected_terrain_rejected_by_ddm(self):
        from repro.multires.ddm import DistanceDirectMesh
        from repro.terrain.mesh import TriangleMesh

        # Two islands: collapse cannot reach a single root.
        v = np.array(
            [
                [0, 0, 0], [1, 0, 0], [0, 1, 0],
                [10, 10, 0], [11, 10, 0], [10, 11, 0],
            ],
            dtype=float,
        )
        f = np.array([[0, 1, 2], [3, 4, 5]])
        mesh = TriangleMesh(v, f)
        with pytest.raises(MultiresError):
            DistanceDirectMesh(mesh)


class TestResourceLimits:
    def test_geodesic_window_budget_enforced(self, rough_mesh):
        from repro.geodesic.exact import ExactGeodesic

        geo = ExactGeodesic(rough_mesh, 0, max_windows=5)
        with pytest.raises(GeodesicError):
            geo.distance_to(rough_mesh.num_vertices - 1)

    def test_dem_rejects_inf(self):
        from repro.terrain.dem import DemGrid

        h = np.zeros((3, 3))
        h[2, 2] = np.inf
        with pytest.raises(TerrainError):
            DemGrid(h, 1.0)
