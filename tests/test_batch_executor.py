"""Concurrency stress suite for :mod:`repro.core.batch`.

The headline guarantee under test: batch execution is
*observationally identical* to a sequential ``engine.query`` loop —
same ids, same intervals, same per-query logical reads — no matter
how many workers interleave, because the shared bound cache only
memoizes pure computations and page charging happens before any
cache consult.  Plus: no trace or metric cross-talk between workers,
and the global I/O aggregate equals the sum of per-query deltas.
"""

from __future__ import annotations

import pytest

from repro.core.batch import (
    BatchQuery,
    BatchQueryExecutor,
    BatchReport,
    BoundCache,
    shared_bound_cache,
)
from repro.core.engine import SurfaceKNNEngine
from repro.errors import QueryError
from repro.obs.context import ObsContext
from repro.storage.stats import ThreadLocalIOStatistics
from repro.testkit.generators import standard_mesh


@pytest.fixture(scope="module")
def batch_engine(bh_mesh) -> SurfaceKNNEngine:
    """Module-owned engine: the executor installs a thread-local
    stats router on it, which must not leak into session fixtures."""
    return SurfaceKNNEngine(bh_mesh, density=10.0, seed=3)


def _mixed_specs(engine, n: int) -> list[BatchQuery]:
    """A deterministic mix of query positions, ks and step lengths."""
    mesh = engine.mesh
    verts = sorted(
        {
            mesh.nearest_vertex(p)
            for p in (
                mesh.xy_bounds().center,
                (200.0, 300.0),
                (1100.0, 200.0),
                (300.0, 1100.0),
                (900.0, 1000.0),
            )
        }
    )
    ks = (1, 2, 4, 6)
    steps = (1, 2)
    specs = []
    for i in range(n):
        specs.append(
            BatchQuery(
                vertex=verts[i % len(verts)],
                k=ks[(i // len(verts)) % len(ks)],
                step_length=steps[i % len(steps)],
            )
        )
    return specs


def _assert_identical(reference, results):
    assert len(reference) == len(results)
    for a, b in zip(reference, results):
        assert a.object_ids == b.object_ids
        assert a.intervals == b.intervals
        assert a.metrics.logical_reads == b.metrics.logical_reads


class TestIdentity:
    def test_workers1_equals_sequential_loop(self, batch_engine):
        specs = _mixed_specs(batch_engine, 12)
        seq = [
            batch_engine.query(s.vertex, s.k, step_length=s.step_length)
            for s in specs
        ]
        report = BatchQueryExecutor(batch_engine, workers=1).run(specs)
        _assert_identical(seq, report.results)

    @pytest.mark.slow
    def test_stress_8_workers_100_queries(self, batch_engine):
        """8 workers x 100 mixed queries, bit-identical to sequential."""
        specs = _mixed_specs(batch_engine, 100)
        seq = [
            batch_engine.query(s.vertex, s.k, step_length=s.step_length)
            for s in specs
        ]
        cache = BoundCache()
        report = BatchQueryExecutor(
            batch_engine, workers=8, bound_cache=cache
        ).run(specs)
        _assert_identical(seq, report.results)
        assert report.workers == 8
        assert len(report.latencies) == 100
        # The mixed workload repeats specs, so sharing must pay off.
        assert cache.hits > 0

    def test_shared_cache_across_executors_still_identical(
        self, batch_engine
    ):
        specs = _mixed_specs(batch_engine, 8)
        seq = [
            batch_engine.query(s.vertex, s.k, step_length=s.step_length)
            for s in specs
        ]
        cache = BoundCache()
        first = BatchQueryExecutor(
            batch_engine, workers=2, bound_cache=cache
        ).run(specs)
        # Second run hits the warm cache almost everywhere.
        second = BatchQueryExecutor(
            batch_engine, workers=4, bound_cache=cache
        ).run(specs)
        _assert_identical(seq, first.results)
        _assert_identical(seq, second.results)

    def test_second_run_through_one_cache_computes_no_screen(
        self, batch_engine, monkeypatch
    ):
        """A stream run again through the cache it filled decides
        every dummy-lb screen from the kept intervals: no screen runs
        and none masks, the screens and skips stay those of a run
        without a cache, and so do ids, intervals and logical reads."""
        specs = _mixed_specs(batch_engine, 12)
        plain = ObsContext("plain")
        with plain.activate():
            seq = [
                batch_engine.query(s.vertex, s.k, step_length=s.step_length)
                for s in specs
            ]
        screens = []
        screen = batch_engine.msdn.corridor_interval

        def counted(*args, **kwargs):
            screens.append(args)
            return screen(*args, **kwargs)

        monkeypatch.setattr(batch_engine.msdn, "corridor_interval", counted)
        cache = BoundCache()
        runs = []
        for name in ("first", "second"):
            ctx = ObsContext(name)
            before = len(screens)
            report = BatchQueryExecutor(
                batch_engine, workers=1, bound_cache=cache, obs=ctx
            ).run(specs)
            _assert_identical(seq, report.results)
            runs.append((ctx, len(screens) - before))
        (first, first_computed), (second, second_computed) = runs

        def counter(ctx, name):
            return ctx.registry.counter(name).value

        assert counter(plain, "ranking.dummy_screens") > 0
        for name in ("ranking.dummy_screens", "ranking.dummy_skips"):
            assert counter(first, name) == counter(second, name) == counter(plain, name)
        assert first_computed > 0 and second_computed == 0
        assert counter(second, "msdn.screen_masked") == 0
        kinds = cache.stats()["by_kind"]
        assert kinds["screen"]["hits"] >= counter(second, "ranking.dummy_screens")


class TestIsolation:
    def test_no_trace_cross_talk(self, batch_engine):
        """Every result's span tree contains exactly its own query."""
        specs = _mixed_specs(batch_engine, 10)
        report = BatchQueryExecutor(
            batch_engine, workers=4, obs=ObsContext(tracing=True)
        ).run(specs)
        for spec, result in zip(specs, report.results):
            root = result.root_span
            assert root is not None and root.name == "query"
            assert len(root.find("query")) == 1, "foreign query spans leaked in"
            attrs = root.attributes
            assert attrs["query_vertex"] == spec.vertex
            assert attrs["k"] == spec.k
            # The whole tree is finished and consistent.
            for span in root.walk():
                assert span.finished
                assert span.status == "ok"

    def test_batch_context_adopts_query_spans(self):
        """A tracing batch context ends with each query's root span:
        the per-query child contexts' finished spans are absorbed."""
        engine = SurfaceKNNEngine(standard_mesh("BH", 13), density=10.0, seed=3)
        ctx = ObsContext(tracing=True)
        specs = _mixed_specs(engine, 4)
        report = BatchQueryExecutor(engine, workers=2, obs=ctx).run(specs)
        roots = ctx.finished_spans()
        assert [root.name for root in roots] == ["query"] * len(specs)
        assert {id(root) for root in roots} == {
            id(result.root_span) for result in report.results
        }

    def test_global_reads_equal_sum_of_query_deltas(self, batch_engine):
        """The thread-local router's aggregate must equal the sum of
        the per-query windows — no reads lost, none double-counted."""
        executor = BatchQueryExecutor(batch_engine, workers=4)
        stats = batch_engine.stats
        assert isinstance(stats, ThreadLocalIOStatistics)
        stats.reset()
        report = executor.run(_mixed_specs(batch_engine, 16))

        by_class: dict[str, int] = {}
        logical = 0
        for result in report.results:
            logical += result.metrics.logical_reads
            for cls, count in result.metrics.reads_by_class.items():
                by_class[cls] = by_class.get(cls, 0) + count
        assert stats.logical_reads == logical
        assert stats.physical_by_class == by_class
        assert stats.physical_reads == sum(by_class.values())

    def test_engine_still_works_sequentially_after(self, batch_engine):
        """Installing the router must not break plain engine.query."""
        result = batch_engine.query(40, 3, step_length=2)
        assert len(result.object_ids) == 3
        assert result.metrics.logical_reads > 0


class TestApi:
    def test_workers_validated(self, batch_engine):
        with pytest.raises(QueryError):
            BatchQueryExecutor(batch_engine, workers=0)

    def test_spec_coercion(self):
        assert BatchQuery.of((3, 2)) == BatchQuery(vertex=3, k=2)
        assert BatchQuery.of(
            {"vertex": 1, "k": 4, "step_length": 2}
        ) == BatchQuery(vertex=1, k=4, step_length=2)
        spec = BatchQuery(vertex=0, k=1)
        assert BatchQuery.of(spec) is spec
        with pytest.raises(QueryError):
            BatchQuery.of("nope")

    def test_run_vertices(self, batch_engine):
        report = BatchQueryExecutor(batch_engine, workers=2).run_vertices(
            [10, 20, 30], k=2, step_length=2
        )
        assert [r.k for r in report.results] == [2, 2, 2]
        assert [r.query_vertex for r in report.results] == [10, 20, 30]

    def test_report_quantiles_and_summary(self):
        report = BatchReport(
            results=[],
            latencies=[0.4, 0.1, 0.3, 0.2],
            wall_seconds=2.0,
            workers=2,
        )
        assert report.latency_quantile(0.0) == pytest.approx(0.1)
        assert report.latency_quantile(1.0) == pytest.approx(0.4)
        assert report.latency_quantile(0.5) == pytest.approx(0.3)
        with pytest.raises(QueryError):
            report.latency_quantile(1.5)
        summary = BatchReport(
            results=[], latencies=[], wall_seconds=0.0, workers=1
        ).summary()
        assert summary["queries"] == 0
        assert summary["throughput_qps"] == 0.0

    def test_bound_cache_lru_and_none_values(self):
        cache = BoundCache(max_entries=2, max_networks=1)
        cache.store("a", None)  # None is a legitimate cached value
        found, value = cache.lookup("a")
        assert found and value is None
        cache.store("b", 1)
        cache.store("c", 2)  # evicts "a" (capacity 2)
        found, _ = cache.lookup("a")
        assert not found
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        # Tuple keys count under their first item, the rest as "other".
        cache.store(("screen", 1), (0.0, 1.0))
        cache.lookup(("screen", 1))
        cache.lookup(("screen", 2))
        stats = cache.stats()
        assert stats["by_kind"] == {
            "other": {"hits": 1, "misses": 1},
            "screen": {"hits": 1, "misses": 1},
        }
        assert stats["hits"] == 2 and stats["misses"] == 2
        cache.clear()
        assert len(cache) == 0
        with pytest.raises(QueryError):
            BoundCache(max_entries=0)

    def test_shared_bound_cache_is_a_singleton(self):
        assert shared_bound_cache() is shared_bound_cache()
