"""ShardedEngine answer identity against the monolithic engine.

The contract under test is the tentpole's: for any terrain both can
build, the sharded engine reports the *same neighbour sets* (and
degraded/budget flags) as one :class:`~repro.core.engine.SurfaceKNNEngine`
over the whole DEM — regardless of which window the router certified —
and the full-tile-span window is byte-identical to the monolithic
engine by construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BatchQueryExecutor
from repro.core.budget import QueryBudget
from repro.core.engine import SurfaceKNNEngine
from repro.core.objects import ObjectSet
from repro.errors import QueryError
from repro.obs.context import ObsContext
from repro.shard import ShardedEngine, uniform_grid_objects
from repro.terrain.mesh import TriangleMesh
from repro.terrain.synthetic import fractal_dem


@pytest.fixture(scope="module")
def dem():
    return fractal_dem(17, 90.0, 500.0, 0.65, seed=7)


@pytest.fixture(scope="module")
def object_vids(dem):
    return uniform_grid_objects(dem, 24, seed=2)


@pytest.fixture(scope="module")
def mono(dem, object_vids):
    mesh = TriangleMesh.from_dem(dem)
    return SurfaceKNNEngine(mesh, objects=ObjectSet(mesh, object_vids))


@pytest.fixture(scope="module")
def sharded(dem, object_vids):
    return ShardedEngine(dem, objects=object_vids, grid=(2, 2))


def _query_vertices(dem):
    """A spread of probes including the tile-cut cross (the border
    queries are the ones sub-window certification finds hardest)."""
    mid = dem.rows // 2
    picks = [
        (2, 2), (2, dem.cols - 3), (dem.rows - 3, 2),
        (dem.rows - 3, dem.cols - 3), (mid, mid), (mid, 1),
        (1, mid), (5, 11),
    ]
    return [r * dem.cols + c for r, c in picks]


class TestAnswerIdentity:
    def test_sets_and_flags_match_monolithic(self, dem, mono, sharded):
        for vertex in _query_vertices(dem):
            for k in (1, 3, 5):
                a = mono.query(vertex, k)
                b = sharded.query(vertex, k)
                assert sorted(a.object_ids) == sorted(b.object_ids), (
                    f"vertex {vertex} k={k}"
                )
                assert a.degraded == b.degraded
                assert a.degraded_reason == b.degraded_reason
                assert a.budget_reason == b.budget_reason
                assert a.converged == b.converged

    def test_result_ids_are_global(self, dem, sharded, object_vids):
        vertex = 2 * dem.cols + 2
        result = sharded.query(vertex, 3)
        assert result.query_vertex == vertex
        for obj in result.object_ids:
            assert 0 <= obj < len(object_vids)
        for gid, _lb in result.rest:
            assert 0 <= gid < len(object_vids)

    def test_intervals_bracket_monolithic_intervals(self, dem, mono, sharded):
        # Sub-window lower bounds are rewritten to globally sound
        # values, so each object's interval must still contain the
        # monolithic converged distance estimate.
        vertex = 3 * dem.cols + 4
        a = mono.query(vertex, 4)
        b = sharded.query(vertex, 4)
        mono_iv = dict(zip(a.object_ids, a.intervals))
        for obj, (lb, ub) in zip(b.object_ids, b.intervals):
            m_lb, m_ub = mono_iv[obj]
            assert lb <= m_ub + 1e-6
            assert ub >= m_lb - 1e-6

    def test_single_tile_grid_is_byte_identical(self, dem, mono, object_vids):
        flat = ShardedEngine(dem, objects=object_vids, grid=(1, 1))
        vertex = 4 * dem.cols + 9
        a = mono.query(vertex, 3)
        b = flat.query(vertex, 3)
        assert a.object_ids == b.object_ids
        assert a.intervals == b.intervals
        assert a.metrics.logical_reads == b.metrics.logical_reads

    def test_budgeted_queries_match_monolithic(self, dem, mono, sharded):
        vertex = 6 * dem.cols + 6
        a = mono.query(vertex, 3, budget=QueryBudget(max_pages=8))
        b = sharded.query(vertex, 3, budget=QueryBudget(max_pages=8))
        assert a.object_ids == b.object_ids
        assert a.budget_reason == b.budget_reason
        assert a.degraded == b.degraded
        assert a.max_error == b.max_error


class TestBatchExecutor:
    def test_batch_matches_sequential_sharded(self, dem, sharded):
        vertices = _query_vertices(dem)[:6]
        sequential = [sharded.query(v, 3) for v in vertices]
        executor = BatchQueryExecutor(sharded, workers=3)
        report = executor.run([{"vertex": v, "k": 3} for v in vertices])
        assert not report.errors
        for seq, got in zip(sequential, report.results):
            assert got is not None
            assert sorted(seq.object_ids) == sorted(got.object_ids)
            assert seq.degraded == got.degraded
            assert seq.budget_reason == got.budget_reason


class TestBuilds:
    def test_warm_builds_every_tile_and_matches_lazy(self, dem, object_vids):
        warmed = ShardedEngine(dem, objects=object_vids, grid=(2, 2))
        lazy = ShardedEngine(dem, objects=object_vids, grid=(2, 2))
        spans = warmed.warm()
        assert spans == warmed.grid.all_tile_spans()
        assert warmed.windows_built == sorted(spans)
        assert lazy.windows_built == []
        vertex = 5 * dem.cols + 5
        a = warmed.query(vertex, 3)
        b = lazy.query(vertex, 3)
        assert a.object_ids == b.object_ids
        assert a.intervals == b.intervals

    def test_windows_are_cached(self, sharded, dem):
        before = len(sharded.windows_built)
        vertex = 2 * dem.cols + 2
        sharded.query(vertex, 2)
        between = len(sharded.windows_built)
        sharded.query(vertex, 2)
        assert len(sharded.windows_built) == between >= before

    def test_density_object_placement(self, dem):
        engine = ShardedEngine(dem, grid=(2, 2), density=4.0, seed=1)
        assert engine.num_objects >= 1
        assert len(np.unique(engine.object_vertices)) == engine.num_objects


class TestObservability:
    def test_counters_and_phase_recorded(self, dem, object_vids):
        obs = ObsContext(profiling=True)
        engine = ShardedEngine(dem, objects=object_vids, grid=(2, 2), obs=obs)
        engine.query(2 * dem.cols + 2, 3)
        snap = obs.registry.collect()
        assert snap["shard.queries_total"]["value"] == 1
        assert snap["shard.windows_built_total"]["value"] >= 1
        (profile,) = obs.finished_profiles()
        assert profile.root.name == "shard-query"
        phases = {node.name for node in profile.root.walk()}
        assert {"shard-routing", "shard-build", "query"} <= phases

    def test_trace_span_emitted(self, dem, object_vids):
        obs = ObsContext(tracing=True)
        engine = ShardedEngine(dem, objects=object_vids, grid=(2, 2), obs=obs)
        engine.query(3 * dem.cols + 3, 2)

        def walk(spans):
            for span in spans:
                yield span
                yield from walk(span.children)

        names = [s.name for s in walk(obs.finished_spans())]
        assert "shard-query" in names
        assert "shard-build" in names
        root = next(
            s for s in obs.finished_spans() if s.name == "shard-query"
        )
        assert "expansions" in root.attributes
        assert "tiles" in root.attributes

    def test_stitched_builds_report_into_query_context(self):
        """Window builds on the stitching pool count and trace into
        the query's context, not the pool threads' empty one, and
        their spans sit in the ``shard-query`` tree."""
        dem = fractal_dem(25, 90.0, 500.0, 0.7)
        obs = ObsContext(tracing=True)
        engine = ShardedEngine(
            dem, objects=uniform_grid_objects(dem, 64, seed=0), grid=(3, 3),
            max_workers=2, obs=obs,
        )
        engine.query(28, 3)
        built = len(engine.windows_built)
        assert obs.registry.counter("shard.windows_built_total").value == built
        roots = obs.finished_spans()
        # Builds on pool threads nest under the query that waits.
        assert [root.name for root in roots] == ["shard-query"]
        assert len(roots[0].find("shard-build")) == built

    def test_one_root_frame_per_sharded_query(self):
        """The stitching case: each sharded query leaves exactly one
        root span and one root profile, both the result's, from one
        pair of timestamps; the stitched pool builds are
        ``shard-build`` spans under the root and no profile root."""
        dem = fractal_dem(25, 90.0, 500.0, 0.7)
        obs = ObsContext(tracing=True, profiling=True)
        engine = ShardedEngine(
            dem, objects=uniform_grid_objects(dem, 64, seed=0), grid=(3, 3),
            max_workers=2, obs=obs,
        )
        stitched = 0
        for vertex in (28, 30):
            built = len(engine.windows_built)
            result = engine.query(vertex, 3)
            (span,) = obs.take_spans()
            (profile,) = obs.take_profiles()
            assert span.name == profile.root.name == "shard-query"
            assert result.root_span is span
            assert result.profile().root is profile.root
            assert profile.total_seconds == span.duration
            assert span.attributes["query_vertex"] == vertex
            assert len(span.find("shard-build")) == (
                len(engine.windows_built) - built
            )
            # Pool builds nest under the waiting shard-routing span and
            # bill nothing: the routing node's time covers the wait.
            routing = profile.root.children["shard-routing"]
            assert "shard-build" not in routing.children
            stitched += sum(
                len(s.find("shard-build")) for s in span.children
                if s.name == "shard-routing"
            )
        assert stitched >= 2

    def test_metrics_sum_over_every_window_query(self):
        """The stitching case escalates, so one sharded query runs
        several window queries; its metrics are the whole query's,
        summed over them, and so equal its root profile's reads."""
        dem = fractal_dem(25, 90.0, 500.0, 0.7)
        obs = ObsContext(profiling=True)
        engine = ShardedEngine(
            dem, objects=uniform_grid_objects(dem, 64, seed=0), grid=(3, 3),
            max_workers=2, obs=obs,
        )
        result = engine.query(28, 3)
        profile = result.profile()
        window_queries = sum(
            node.calls for node in profile.root.walk() if node.name == "query"
        )
        assert window_queries >= 2
        metrics = result.metrics
        assert metrics.pages_accessed == profile.counter("physical_reads")
        assert metrics.logical_reads == profile.counter("logical_reads")
        assert metrics.reads_by_class == {
            cls: profile.counter(f"physical.{cls}") for cls in ("dmtm", "msdn")
        }
        assert metrics.iterations_filter >= window_queries


class TestValidation:
    def test_k_bounds_checked(self, sharded, object_vids):
        with pytest.raises(QueryError, match="k must be"):
            sharded.query(0, 0)
        with pytest.raises(QueryError, match="exceeds"):
            sharded.query(0, len(object_vids) + 1)

    def test_vertex_range_checked(self, dem, sharded):
        with pytest.raises(QueryError, match="out of range"):
            sharded.query(dem.rows * dem.cols, 1)
        with pytest.raises(QueryError, match="out of range"):
            sharded.query(-1, 1)

    def test_bad_object_lists_rejected(self, dem):
        with pytest.raises(QueryError, match="at least one"):
            ShardedEngine(dem, objects=[])
        with pytest.raises(QueryError, match="distinct"):
            ShardedEngine(dem, objects=[3, 3])
        with pytest.raises(QueryError, match="range"):
            ShardedEngine(dem, objects=[dem.rows * dem.cols])

    def test_uniform_grid_objects_validates_count(self, dem):
        with pytest.raises(QueryError, match="place"):
            uniform_grid_objects(dem, dem.rows * dem.cols + 1)
