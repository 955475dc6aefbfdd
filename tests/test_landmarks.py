"""Landmark (ALT) lower bounds: selection determinism, admissibility,
batch/scalar agreement, engine integration and validation, and the
``landmark_admissible`` oracle's injected-bug self-check.

The admissibility properties all reduce to the triangle inequality of
the *surface* metric — the tables must hold exact ``dS`` rows, never
network distances (which over-estimate ``dS``); see the module
docstring of :mod:`repro.geodesic.landmarks`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import shared_bound_cache
from repro.core.engine import SurfaceKNNEngine
from repro.errors import GeodesicError, QueryError
from repro.geodesic import ExactGeodesic, LandmarkIndex
from repro.testkit import (
    MUTATORS,
    ORACLES,
    generate_scenario,
    load_case,
    replay_case,
    run_scenario,
    scenario_fails,
    shrink_scenario,
    standard_engine,
    standard_mesh,
    write_case,
)

CHEAP_SEED = 42  # fractal[9], 15 objects, one query — runs in <1s


@pytest.fixture(scope="module")
def mesh():
    return standard_mesh("BH", 13)


@pytest.fixture(scope="module")
def index(mesh):
    return LandmarkIndex.build(mesh, count=5, seed=2)


class TestSelection:
    def test_farthest_point_selection_is_deterministic(self, mesh):
        a = LandmarkIndex.build(mesh, count=5, seed=2)
        b = LandmarkIndex.build(mesh, count=5, seed=2)
        assert a.landmarks == b.landmarks
        assert np.array_equal(a.surface, b.surface)

    def test_landmarks_are_distinct_vertices(self, index, mesh):
        assert len(set(index.landmarks)) == index.count == 5
        assert all(0 <= v < mesh.num_vertices for v in index.landmarks)

    def test_count_clamped_to_vertex_count(self, mesh):
        idx = LandmarkIndex.build(mesh, count=10**6, seed=0)
        assert idx.count == mesh.num_vertices

    def test_count_below_one_rejected(self, mesh):
        with pytest.raises(GeodesicError, match="count"):
            LandmarkIndex.build(mesh, count=0)

    def test_tables_are_read_only(self, index):
        with pytest.raises(ValueError):
            index.surface[0, 0] = 1.0


class TestBounds:
    def test_self_bound_is_zero(self, index, mesh):
        for v in range(0, mesh.num_vertices, 17):
            assert index.lower_bound(v, v) == 0.0

    def test_bounds_are_symmetric(self, index, mesh):
        rng = np.random.default_rng(4)
        for _ in range(25):
            u, v = rng.integers(0, mesh.num_vertices, size=2)
            assert index.lower_bound(int(u), int(v)) == pytest.approx(
                index.lower_bound(int(v), int(u))
            )

    def test_batch_matches_scalar_elementwise(self, index, mesh):
        rng = np.random.default_rng(5)
        sources = rng.integers(0, mesh.num_vertices, size=30)
        targets = rng.integers(0, mesh.num_vertices, size=30)
        batch = index.lower_bound_batch(sources, targets)
        assert batch.shape == (30,)
        for s, t, got in zip(sources, targets, batch):
            assert got == pytest.approx(index.lower_bound(int(s), int(t)))

    def test_batch_broadcasts_scalar_source(self, index, mesh):
        targets = np.arange(0, mesh.num_vertices, 11)
        batch = index.lower_bound_batch(3, targets)
        assert batch.shape == targets.shape
        for t, got in zip(targets, batch):
            assert got == pytest.approx(index.lower_bound(3, int(t)))

    def test_bounds_admissible_vs_exact_geodesics(self, index, mesh):
        rng = np.random.default_rng(6)
        sources = sorted({int(v) for v in rng.integers(0, mesh.num_vertices, 4)})
        targets = [int(v) for v in rng.integers(0, mesh.num_vertices, 12)]
        for s in sources:
            exact = ExactGeodesic(mesh, s).distances()
            for t in targets:
                ds = exact[t]
                if not np.isfinite(ds):
                    continue
                lb = index.lower_bound(s, t)
                assert lb <= ds + 1e-6 + 1e-9 * ds

    def test_anchored_bounds_nonnegative_and_admissible(self, index, mesh):
        q = 7
        exact = ExactGeodesic(mesh, q).distances()
        targets = np.arange(0, mesh.num_vertices, 13)
        bounds = index.anchored_lower_bounds([(q, 0.0)], targets)
        assert (bounds >= 0.0).all()
        for t, lb in zip(targets, bounds):
            ds = exact[int(t)]
            if np.isfinite(ds):
                assert lb <= ds + 1e-6 + 1e-9 * ds

    def test_kth_upper_bound_overestimates_true_kth(self, index, mesh):
        q = 7
        exact = ExactGeodesic(mesh, q).distances()
        targets = [3, 40, 77, 101, 150]
        k = 3
        seed = index.kth_upper_bound([(q, 0.0)], targets, k)
        true_kth = sorted(exact[t] for t in targets)[k - 1]
        assert seed >= true_kth - 1e-9

    def test_kth_upper_bound_infinite_when_too_few(self, index):
        assert index.kth_upper_bound([(0, 0.0)], [1], k=5) == float("inf")


class TestEngineIntegration:
    def test_standard_engine_reuses_cached_base_engine(self, obs_context):
        # Unique key so no other module's cached engine interferes.
        base = standard_engine("BH", 13, density=9.5, seed=6)
        with_lm = standard_engine("BH", 13, density=9.5, seed=6, landmarks=3)
        # Attaching landmarks must clone, not rebuild: shared DMTM/MSDN.
        assert with_lm.dmtm is base.dmtm
        assert with_lm.msdn is base.msdn
        assert with_lm.objects is base.objects
        assert with_lm.landmarks is not None
        snap = obs_context.registry.collect()
        assert snap["landmark.build"]["value"] == 1
        # The landmark variant is itself cached.
        again = standard_engine("BH", 13, density=9.5, seed=6, landmarks=3)
        assert again is with_lm
        snap = obs_context.registry.collect()
        assert snap["landmark.build"]["value"] == 1

    def test_queries_identical_with_and_without_landmarks(self):
        base = standard_engine("BH", 13, density=9.5, seed=6)
        with_lm = base.with_landmarks(3)
        for q in (4, 60, 111):
            a = base.query(q, 3, step_length=2)
            b = with_lm.query(q, 3, step_length=2)
            # The contract pins the *set* (order is by current ubs and
            # may shift when pruning changes polish targets).
            assert sorted(a.object_ids) == sorted(b.object_ids)
            assert a.degraded == b.degraded
            # Landmark lower bounds may only tighten the intervals.
            lbs_a = dict(zip(a.object_ids, (lb for lb, _ in a.intervals)))
            lbs_b = dict(zip(b.object_ids, (lb for lb, _ in b.intervals)))
            for obj, lb_a in lbs_a.items():
                assert lbs_b[obj] >= lb_a - 1e-9

    def test_int_landmarks_param_builds_index(self):
        engine = standard_engine("BH", 13, density=9.5, seed=6)
        clone = engine.with_landmarks(2)
        assert clone.landmarks.count == 2
        detached = clone.with_landmarks(None)
        assert detached.landmarks is None

    def test_integral_count_accepted(self, mesh):
        engine = SurfaceKNNEngine(
            mesh, density=9.5, seed=6, landmarks=np.int64(3)
        )
        assert isinstance(engine.landmarks, LandmarkIndex)
        assert engine.landmarks.count == 3
        result = engine.query(60, 3, step_length=2)
        assert len(result.object_ids) == 3

    def test_index_over_another_mesh_rejected(self, mesh, index):
        engine = standard_engine("BH", 17, density=9.5, seed=6)
        assert mesh.num_vertices != engine.mesh.num_vertices
        with pytest.raises(QueryError, match="table columns"):
            SurfaceKNNEngine(engine.mesh, landmarks=index)
        with pytest.raises(QueryError, match="table columns"):
            engine.with_landmarks(index)

    @pytest.mark.parametrize("bad", [True, 3.0, "3"])
    def test_non_integral_landmarks_rejected(self, bad):
        engine = standard_engine("BH", 13, density=9.5, seed=6)
        with pytest.raises(QueryError, match="int count"):
            engine.with_landmarks(bad)

    def test_engine_build_leaves_shared_bound_cache_alone(self, mesh):
        cache = shared_bound_cache()
        before = cache.stats()
        SurfaceKNNEngine(mesh, density=9.5, seed=6, landmarks=3)
        assert cache.stats() == before


class TestOracleAndMutator:
    def test_oracle_registered(self):
        assert "landmark_admissible" in ORACLES
        oracle = ORACLES["landmark_admissible"]
        assert "landmarks" in oracle.module

    def test_mutator_registered(self):
        assert "weaken_landmark_bound" in MUTATORS

    def test_landmarks_mode_passes_clean(self):
        report = run_scenario(
            generate_scenario(CHEAP_SEED), modes={"landmarks"}
        )
        assert report.ok, [str(f) for f in report.findings]
        assert "landmarks" in report.modes_run

    def test_injected_inadmissible_bound_caught_and_shrunk(self, tmp_path):
        scenario = generate_scenario(CHEAP_SEED)

        def fails(candidate):
            return scenario_fails(
                candidate,
                oracle_names=["landmark_admissible"],
                mutator="weaken_landmark_bound",
                modes={"baseline"},
            )

        assert fails(scenario), "injected inadmissible bound not caught"
        outcome = shrink_scenario(scenario, fails, max_attempts=40)
        small = outcome.scenario
        assert outcome.steps >= 1
        assert small.objects.count <= scenario.objects.count
        assert fails(small), "shrunk scenario no longer fails"

        path = write_case(
            small, tmp_path, mutator="weaken_landmark_bound",
            oracles=["landmark_admissible"],
        )
        case = load_case(path)
        assert case["mutator"] == "weaken_landmark_bound"
        report = replay_case(path)
        assert not report.ok
        assert any(
            f.violation.oracle == "landmark_admissible"
            for f in report.findings
        )
