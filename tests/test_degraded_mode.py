"""Degraded-mode execution under persistent storage faults.

Contract under test: with a kill-list of permanently dead DMTM/MSDN
pages, every query either answers exactly or comes back
``degraded=True`` with ``degraded_reason == "storage"`` and intervals
that still sandwich the exact surface distances — never a crash.
Degrading is the only response to a storage fault: under every fault
regime, no query entry point raises.  Engine health tracks the
storage substrate, and wall-clock budgets reach into the CSR kernels.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.core.baseline import exact_knn
from repro.core.batch import BatchQueryExecutor
from repro.core.budget import QueryBudget
from repro.core.engine import SurfaceKNNEngine
from repro.core.health import (
    HEALTH_DEGRADED,
    HEALTH_FAILED,
    HEALTH_HEALTHY,
    EngineHealth,
)
from repro.errors import QueryError
from repro.geodesic.csr import dijkstra_csr_with_parents, graph_dijkstra_with_parents
from repro.geodesic.deadline import DeadlineExceeded, deadline_scope
from repro.geodesic.frontier import MIN_FRONTIER_NODES
from repro.obs.export import query_record
from repro.shard import ShardedEngine, uniform_grid_objects
from repro.storage.faults import FaultInjector, RetryPolicy, kill_random_pages
from repro.terrain.synthetic import fractal_dem
from repro.testkit.reference import csr_from_adjacency

KILL_FRACTION = 0.10
KILL_SEED = 13
QUERY_VERTICES = (10, 40, 100, 200)


def killed_engine(mesh, **kwargs) -> tuple[SurfaceKNNEngine, list[int]]:
    engine = SurfaceKNNEngine(mesh, density=10.0, seed=3, **kwargs)
    dead = kill_random_pages(engine.pages, KILL_FRACTION, seed=KILL_SEED)
    assert dead, "the kill-list must not be empty at this scale"
    return engine, dead


class TestStorageFallbackSoundness:
    @pytest.fixture(scope="class")
    def dead_engine(self, bh_mesh):
        engine, _dead = killed_engine(bh_mesh)
        return engine

    def test_every_query_answers_no_crashes(self, dead_engine):
        degraded = 0
        for qv in QUERY_VERTICES:
            result = dead_engine.query(qv, 3)  # must not raise
            assert len(result.object_ids) == 3
            if result.degraded:
                degraded += 1
                assert result.degraded_reason == "storage"
            else:
                assert result.degraded_reason is None
        assert degraded > 0, "kill-list never touched the bound pages"

    def test_degraded_intervals_sandwich_exact_distance(
        self, dead_engine, bh_mesh
    ):
        qv = QUERY_VERTICES[0]
        result = dead_engine.query(qv, 3)
        assert result.degraded and result.degraded_reason == "storage"
        truth = dict(
            exact_knn(bh_mesh, dead_engine.objects, qv, len(dead_engine.objects))
        )
        for obj, (lb, ub) in zip(result.object_ids, result.intervals):
            ds = truth[obj]
            assert lb <= ds + 1e-6 + 1e-9 * ds
            assert ub >= ds - 1e-6 - 1e-9 * ds

    def test_degraded_max_error_is_finite_and_nonnegative(self, dead_engine):
        for qv in QUERY_VERTICES:
            result = dead_engine.query(qv, 3)
            if result.degraded:
                assert math.isfinite(result.max_error)
                assert result.max_error >= 0.0

    def test_quarantine_absorbs_the_retry_storms(self, dead_engine):
        for qv in QUERY_VERTICES:
            dead_engine.query(qv, 3)
        stats = dead_engine.pages.quarantine.stats()
        assert stats["quarantined"] > 0
        assert stats["fast_fails_total"] > 0


#: Fault regimes under which every page read fails, as injectors over
#: a store of ``pages`` pages: all pages dead, every read attempt
#: failing transiently, every read attempt corrupt.
FAULT_REGIMES = {
    "dead": lambda pages: FaultInjector(dead_pages=range(pages)),
    "transient": lambda pages: FaultInjector(seed=1, transient_rate=1.0),
    "corrupt": lambda pages: FaultInjector(seed=1, corrupt_rate=1.0),
}


class TestStorageFaultsNeverRaise:
    """Degrading is the only response to a storage fault: with every
    page read failing, no query entry point raises, every k-NN answer
    comes back degraded for storage, range results come back
    unconverged, and a batch records no error."""

    K = 3

    def engine(self, mesh, regime) -> SurfaceKNNEngine:
        engine = SurfaceKNNEngine(
            mesh, density=8.0, seed=3, retry_policy=RetryPolicy(max_attempts=2)
        )
        engine.pages.fault_injector = FAULT_REGIMES[regime](
            engine.pages.num_pages
        )
        return engine

    def assert_storage_degraded(self, result):
        assert len(result.object_ids) == self.K
        assert result.degraded
        assert result.degraded_reason == "storage"

    @pytest.mark.parametrize("regime", sorted(FAULT_REGIMES))
    def test_every_entry_point_degrades(self, bh_mesh, regime):
        # A fresh engine per entry point: each starts with an empty
        # quarantine and a healthy verdict.
        for method in ("mr3", "ea"):
            engine = self.engine(bh_mesh, regime)
            self.assert_storage_degraded(engine.query(40, self.K, method=method))
        engine = self.engine(bh_mesh, regime)
        a, b, c = bh_mesh.face_points(20)
        x, y = (a[:2] + b[:2] + c[:2]) / 3.0
        self.assert_storage_degraded(engine.query_point(x, y, self.K))
        engine = self.engine(bh_mesh, regime)
        centre = bh_mesh.nearest_vertex(bh_mesh.xy_bounds().center)
        assert not engine.range_query(centre, 400.0).converged

        engine = self.engine(bh_mesh, regime)
        report = BatchQueryExecutor(engine, workers=2).run(
            [(qv, self.K) for qv in QUERY_VERTICES]
        )
        assert report.errors == []
        for result in report.results:
            self.assert_storage_degraded(result)

        dem = fractal_dem(25, 90.0, 500.0, 0.7)
        max_pages = 4096
        sharded = ShardedEngine(
            dem, objects=uniform_grid_objects(dem, 64, seed=0), grid=(3, 3),
            fault_injector_factory=lambda span: FAULT_REGIMES[regime](max_pages),
            retry_policy=RetryPolicy(max_attempts=2), max_workers=2,
        )
        for vertex in (28, 312):
            self.assert_storage_degraded(sharded.query(vertex, self.K))
        # The dead regime's kill-list covered every window's pages.
        assert all(
            sharded.window_engine(span).pages.num_pages <= max_pages
            for span in sharded.windows_built
        )


class TestDegradedReasonThreading:
    def test_storage_reason_reaches_query_record(self, bh_mesh):
        engine, _ = killed_engine(bh_mesh)
        result = next(
            engine.query(qv, 3)
            for qv in QUERY_VERTICES
            if engine.query(qv, 3).degraded
        )
        record = query_record(result)
        assert record["degraded"] is True
        assert record["degraded_reason"] == "storage"

    def test_budget_degradation_says_budget(self, small_engine):
        result = small_engine.query(40, 3, budget=QueryBudget(max_pages=1))
        assert result.degraded
        assert result.degraded_reason == "budget"
        assert query_record(result)["degraded_reason"] == "budget"

    def test_clean_result_has_no_reason(self, small_engine):
        result = small_engine.query(40, 3)
        assert not result.degraded
        assert result.degraded_reason is None
        assert "degraded_reason" not in query_record(result)


class TestEngineHealth:
    def test_fraction_validated(self, small_engine):
        with pytest.raises(QueryError):
            EngineHealth(small_engine, failed_quarantine_fraction=0.0)
        with pytest.raises(QueryError):
            EngineHealth(small_engine, failed_quarantine_fraction=1.5)

    def test_fresh_engine_is_healthy(self, bh_mesh):
        engine = SurfaceKNNEngine(bh_mesh, density=10.0, seed=3)
        assert engine.health.state() == HEALTH_HEALTHY
        assert engine.health.healthy

    def test_quarantine_degrades_then_transition_recorded(self, bh_mesh):
        engine, _ = killed_engine(bh_mesh)
        assert engine.health.state() == HEALTH_HEALTHY
        for qv in QUERY_VERTICES:
            engine.query(qv, 3)
        assert engine.health.state() == HEALTH_DEGRADED
        assert engine.health.cause_kind == "quarantine"
        assert (HEALTH_HEALTHY, HEALTH_DEGRADED) in [
            (a, b) for a, b, _cause in engine.health.transitions
        ]
        snapshot = engine.health.as_dict()
        assert snapshot["state"] == HEALTH_DEGRADED
        assert snapshot["quarantined_pages"] > 0

    def test_quarantine_fraction_fails_the_engine(self, bh_mesh):
        engine, _ = killed_engine(bh_mesh)
        # With an absurdly low threshold a single quarantined page
        # marks the engine failed.
        engine.health = EngineHealth(engine, failed_quarantine_fraction=1e-6)
        for qv in QUERY_VERTICES:
            engine.query(qv, 3)
        assert engine.health.state() == HEALTH_FAILED
        assert engine.health.cause_kind == "quarantine"


class TestBatchUnderPersistentFaults:
    def test_summary_splits_reasons_and_reports_health(self, bh_mesh):
        engine, _ = killed_engine(bh_mesh)
        executor = BatchQueryExecutor(engine, workers=4)
        report = executor.run([(qv, 3) for qv in QUERY_VERTICES])
        summary = report.summary()
        assert summary["failed"] == 0
        assert summary["skipped"] == 0
        assert summary["degraded_storage"] > 0
        assert summary["degraded_budget"] == 0
        assert (
            summary["degraded"]
            == summary["degraded_storage"] + summary["degraded_budget"]
        )
        assert summary["engine_health"]["state"] == HEALTH_DEGRADED

    def test_budget_and_storage_counted_apart(self, small_engine):
        executor = BatchQueryExecutor(
            small_engine, workers=2, budget=QueryBudget(max_pages=1)
        )
        summary = executor.run([(40, 3), (50, 2)]).summary()
        assert summary["degraded_budget"] == summary["degraded"]
        assert summary["degraded_storage"] == 0


class TestKernelDeadline:
    def chain_csr(self, n: int = 256):
        adj = [[] for _ in range(n)]
        for u in range(n - 1):
            adj[u].append((u + 1, 1.0))
            adj[u + 1].append((u, 1.0))
        return csr_from_adjacency(adj)

    def test_kernel_notices_expired_deadline(self):
        csr = self.chain_csr()
        with deadline_scope(time.perf_counter() - 1.0):
            with pytest.raises(DeadlineExceeded):
                dijkstra_csr_with_parents(csr, 0)

    def test_bucket_kernel_notices_expired_deadline(self):
        csr = self.chain_csr(MIN_FRONTIER_NODES + 8)
        with deadline_scope(time.perf_counter() - 1.0):
            with pytest.raises(DeadlineExceeded, match="multi_source_frontier"):
                graph_dijkstra_with_parents(csr, 0)

    def test_no_deadline_no_interference(self):
        csr = self.chain_csr(64)
        dist, _parent = dijkstra_csr_with_parents(csr, 0)
        assert dist[63] == pytest.approx(63.0)

    def test_zero_second_budget_degrades_not_crashes(self, small_engine):
        result = small_engine.query(40, 3, budget=QueryBudget(max_seconds=0.0))
        assert result.degraded
        assert result.degraded_reason == "budget"
        assert len(result.object_ids) == 3
