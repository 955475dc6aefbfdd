"""Batch fault isolation: failed queries become error records and
the pool never crashes."""

from __future__ import annotations

from repro.core.batch import BatchError, BatchQuery, BatchQueryExecutor
from repro.core.budget import QueryBudget
from repro.core.engine import SurfaceKNNEngine
from repro.storage.faults import FaultInjector, RetryPolicy


class TestBatchIsolation:
    def test_bad_query_isolated_not_fatal(self, small_engine):
        executor = BatchQueryExecutor(small_engine, workers=4)
        report = executor.run([(3, 2), (40, 999), (50, 2)])
        assert report.results[0] is not None
        assert report.results[1] is None
        assert report.results[2] is not None
        (error,) = report.errors
        assert isinstance(error, BatchError)
        assert error.index == 1
        assert error.kind == "QueryError"
        assert not error.skipped
        summary = report.summary()
        assert summary["failed"] == 1 and summary["skipped"] == 0

    def test_query_errors_do_not_stop_admission(self, small_engine):
        executor = BatchQueryExecutor(small_engine, workers=1)
        report = executor.run([(1, 999), (2, 999), (3, 999), (4, 2)])
        # Three QueryErrors in a row, but failed queries never stop
        # admission — the healthy query still runs.
        assert report.results[3] is not None
        assert report.summary()["skipped"] == 0

    def test_faulted_batch_completes_with_zero_crashes(self, bh_mesh):
        engine = SurfaceKNNEngine(
            bh_mesh, density=10.0, seed=3,
            fault_injector=FaultInjector(
                seed=7, transient_rate=0.03, corrupt_rate=0.02
            ),
            retry_policy=RetryPolicy(max_attempts=8),
        )
        executor = BatchQueryExecutor(engine, workers=8)
        specs = [(v, 3) for v in range(100)]
        report = executor.run(specs)  # must not raise
        stats = engine.pages.fault_stats
        injector = engine.pages.fault_injector
        assert len(report.results) == 100
        # Every failure is an error record, never an exception.
        for slot, result in enumerate(report.results):
            if result is None:
                assert any(e.index == slot for e in report.errors)
        # Counters reconcile with the injector's ground-truth log.
        assert stats.transient_faults_total + stats.corruptions_total == (
            injector.injected_total
        )
        assert stats.retries_total == (
            injector.injected_total - stats.reads_failed_total
        )
        assert injector.injected_total > 0

    def test_batch_wide_budget_and_per_spec_override(self, small_engine):
        executor = BatchQueryExecutor(
            small_engine, workers=2, budget=QueryBudget(max_pages=1)
        )
        report = executor.run(
            [
                BatchQuery(vertex=40, k=3),
                BatchQuery(vertex=40, k=3, budget=QueryBudget()),
            ]
        )
        default_budget, overridden = report.results
        assert default_budget.degraded
        assert not overridden.degraded
        assert report.summary()["degraded"] == 1

    def test_clean_batch_unchanged_by_isolation_machinery(self, small_engine):
        specs = [(3, 2), (40, 3), (50, 2)]
        sequential = [small_engine.query(v, k) for v, k in specs]
        report = BatchQueryExecutor(small_engine, workers=4).run(specs)
        assert not report.errors
        for got, want in zip(report.results, sequential):
            assert got.object_ids == want.object_ids
            assert got.intervals == want.intervals
            assert got.metrics.logical_reads == want.metrics.logical_reads

    def test_ok_results_filters_failures(self, small_engine):
        report = BatchQueryExecutor(small_engine).run([(3, 2), (4, 999)])
        assert len(report.results) == 2
        assert len(report.ok_results) == 1
