"""Unit tests for the Kanai-Suzuki approximate geodesic."""

import numpy as np
import pytest

from repro.errors import GeodesicError
from repro.geodesic.exact import exact_surface_distance
from repro.geodesic.kanai_suzuki import kanai_suzuki_distance, kanai_suzuki_distances
from repro.geodesic.pathnet import pathnet_distance
from repro.testkit.generators import standard_mesh
from repro.testkit.reference import kanai_suzuki_distances_reference


class TestKanaiSuzuki:
    def test_zero_for_same_vertex(self, rough_mesh):
        assert kanai_suzuki_distance(rough_mesh, 5, 5) == 0.0

    def test_upper_bound_of_exact(self, rough_mesh):
        rng = np.random.default_rng(8)
        for _ in range(4):
            a, b = rng.integers(0, rough_mesh.num_vertices, size=2)
            if a == b:
                continue
            a, b = int(a), int(b)
            ks = kanai_suzuki_distance(rough_mesh, a, b)
            ds = exact_surface_distance(rough_mesh, a, b)
            assert ks >= ds - 1e-9

    def test_close_to_exact(self, rough_mesh):
        a, b = 4, rough_mesh.num_vertices - 6
        ks = kanai_suzuki_distance(rough_mesh, a, b, tolerance=0.01, max_steiner=8)
        ds = exact_surface_distance(rough_mesh, a, b)
        assert ks <= ds * 1.06  # selective refinement within a few %

    def test_better_than_edge_network(self, rough_mesh):
        a, b = 7, rough_mesh.num_vertices - 9
        ks = kanai_suzuki_distance(rough_mesh, a, b)
        dn = pathnet_distance(rough_mesh, a, b, steiner_per_edge=0)
        assert ks <= dn + 1e-9

    def test_flat_matches_euclid(self, flat_mesh):
        a, b = 0, flat_mesh.num_vertices - 1
        euclid = float(np.linalg.norm(flat_mesh.vertices[a] - flat_mesh.vertices[b]))
        ks = kanai_suzuki_distance(flat_mesh, a, b, tolerance=0.005, max_steiner=16)
        assert ks == pytest.approx(euclid, rel=0.02)

    def test_bad_tolerance(self, flat_mesh):
        with pytest.raises(GeodesicError):
            kanai_suzuki_distance(flat_mesh, 0, 1, tolerance=0.0)

    def test_tighter_tolerance_never_worse(self, rough_mesh):
        a, b = 11, rough_mesh.num_vertices - 13
        loose = kanai_suzuki_distance(rough_mesh, a, b, tolerance=0.2)
        tight = kanai_suzuki_distance(rough_mesh, a, b, tolerance=0.005, max_steiner=8)
        assert tight <= loose + 1e-9


class TestSharedRoundZero:
    """One round-0 search for all targets settles each target with the
    label and route of its own search, so every distance is the
    per-target one to the bit."""

    @pytest.mark.parametrize("name", ["BH", "EP"])
    @pytest.mark.parametrize("tolerance", [0.03, 0.01])
    def test_equals_one_search_per_target(self, name, tolerance):
        mesh = standard_mesh(name, 17)
        rng = np.random.default_rng(21)
        source, *targets = (int(v) for v in rng.choice(mesh.num_vertices, 7, replace=False))
        # Neither the first nor the last target is the farthest, so a
        # search stopped at either leaves another unsettled.  Then the
        # source itself, and a target listed twice.
        targets = sorted(targets) + [source, targets[2]]
        got = kanai_suzuki_distances(mesh, source, targets, tolerance=tolerance)
        per_target = [
            kanai_suzuki_distance(mesh, source, t, tolerance=tolerance) for t in targets
        ]
        per_pair = kanai_suzuki_distances_reference(
            mesh, source, targets, tolerance=tolerance
        )
        bits = [np.float64(v).tobytes() for v in got]
        assert bits == [np.float64(v).tobytes() for v in per_target]
        assert bits == [np.float64(v).tobytes() for v in per_pair]
        assert got[-2] == 0.0
        assert got[-1] == got[targets.index(targets[-1])]
        assert max(got) not in (got[0], got[5])

    def test_one_target_is_the_single_distance(self, rough_mesh):
        assert kanai_suzuki_distances(rough_mesh, 5, [5]) == [0.0]
        assert kanai_suzuki_distances(rough_mesh, 5, []) == []
        with pytest.raises(GeodesicError):
            kanai_suzuki_distances(rough_mesh, 0, [0, 1], tolerance=0.0)
