"""Observability stack: tracing spans, metrics, trace export.

Covers the contracts docs/observability.md promises: span nesting and
exception safety on the one frame stack of ``ObsContext``, histogram
quantile accuracy (error bounded by one bucket width), JSONL
round-trips, and the per-query trace invariants — trace rounds match
the iteration counters, and the per-level physical page reads sum to
the query's ``pages_accessed``.
"""

import json
import math
import threading

import numpy as np
import pytest

from repro.obs.events import LevelEvent, QueryTrace
from repro.obs.export import (
    query_record,
    query_trace,
    read_jsonl,
    render,
    write_jsonl,
)
from repro.obs.context import NOOP_FRAME, ObsContext, active_registry
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profile import UNTRACED_PHASES
from repro.obs.tracing import Span


class TestTracing:
    """The span side of the seam: frames of a tracing context."""

    def test_nesting(self):
        ctx = ObsContext(tracing=True)
        with ctx.phase("outer", k=5) as frame:
            with ctx.phase("inner") as inner:
                assert ctx.current_frame() is inner
            with ctx.phase("inner"):
                pass
        roots = ctx.finished_spans()
        assert [s.name for s in roots] == ["outer"]
        outer = frame.span
        assert roots[0] is outer
        assert outer.attributes == {"k": 5}
        assert [c.name for c in outer.children] == ["inner", "inner"]
        assert len(outer.find("inner")) == 2
        assert all(s.finished and s.duration >= 0 for s in outer.walk())

    def test_exception_safety(self):
        ctx = ObsContext(tracing=True)
        with pytest.raises(ValueError):
            with ctx.phase("outer"):
                with ctx.phase("inner"):
                    raise ValueError("boom")
        # Both frames were popped and recorded despite the raise.
        assert ctx.current_frame() is None
        (outer,) = ctx.finished_spans()
        assert outer.status == "error"
        assert "boom" in outer.error
        (inner,) = outer.children
        assert inner.status == "error"
        # The context is reusable afterwards.
        with ctx.phase("again"):
            pass
        assert len(ctx.finished_spans()) == 2

    def test_disabled_tracer_is_noop(self):
        ctx = ObsContext()
        frame = ctx.phase("anything", k=1)
        assert frame is NOOP_FRAME
        with frame as f:
            f.set_attribute("ignored", 1)  # must not raise
            assert f.span is None and f.node is None
        assert ctx.current_frame() is None
        assert ctx.finished_spans() == [] and ctx.take_spans() == []
        # No frame state at all: the batch executor builds one child
        # context per query.
        assert not hasattr(ctx, "_local")

    def test_take_clears(self):
        ctx = ObsContext(tracing=True)
        with ctx.phase("a"):
            pass
        assert [s.name for s in ctx.take_spans()] == ["a"]
        assert ctx.finished_spans() == []

    def test_span_to_dict(self):
        ctx = ObsContext(tracing=True)
        with ctx.phase("outer", k=3):
            with ctx.phase("inner"):
                pass
        d = ctx.finished_spans()[0].to_dict()
        assert d["name"] == "outer"
        assert d["status"] == "ok"
        assert d["attributes"] == {"k": 3}
        assert d["children"][0]["name"] == "inner"
        json.dumps(d)  # JSON-ready

    def test_leaf_phases_are_profiled_never_traced(self):
        assert UNTRACED_PHASES == {
            "graph-kernel", "frontier-relaxation", "page-io",
        }
        traced = ObsContext(tracing=True)
        assert traced.phase("graph-kernel") is NOOP_FRAME
        both = ObsContext(tracing=True, profiling=True)
        with both.phase("query") as root:
            with both.phase("graph-kernel") as kernel:
                assert kernel.span is None and kernel.node is not None
                with both.phase("bound-composition"):
                    pass
        # A traced frame under a leaf nests under the leaf's enclosing
        # span; the leaf itself shows up in the profile only.
        assert [c.name for c in root.span.children] == ["bound-composition"]
        assert list(root.node.children) == ["graph-kernel"]

    def test_one_timestamp_pair_feeds_both_outputs(self):
        ctx = ObsContext(tracing=True, profiling=True)
        with ctx.phase("query") as root:
            with ctx.phase("spatial-filter"):
                pass
        (span,) = ctx.finished_spans()
        (profile,) = ctx.finished_profiles()
        assert span is root.span and profile.root is root.node
        assert profile.total_seconds == span.duration

    def test_adopt_appends_each_kind_it_records(self):
        child = ObsContext(tracing=True, profiling=True)
        with child.phase("query"):
            pass
        spans, profiles = child.take_spans(), child.take_profiles()
        traced = ObsContext(tracing=True)
        traced.adopt(spans, profiles)
        assert traced.finished_spans() == spans
        assert traced.finished_profiles() == []
        assert child.finished_spans() == [] == child.finished_profiles()

    def test_nested_under_joins_the_waiting_span_without_profiling(self):
        """A pool task's frames nest under the frame that waits for
        it: their spans join that span's tree, and they add no
        profile node or root of their own."""
        ctx = ObsContext(tracing=True, profiling=True)
        with ctx.phase("shard-query") as root:
            with ctx.phase("shard-routing") as waiting:

                def task():
                    with ctx.nested_under(waiting):
                        with ctx.phase("shard-build"):
                            with ctx.phase("landmark-build"):
                                pass

                worker = threading.Thread(target=task)
                worker.start()
                worker.join(timeout=30)
                assert not worker.is_alive()
        (span,) = ctx.finished_spans()
        assert span is root.span
        (routing,) = span.children
        assert [s.name for s in routing.walk()] == [
            "shard-routing", "shard-build", "landmark-build",
        ]
        (profile,) = ctx.finished_profiles()
        assert [n.name for n in profile.root.walk()] == [
            "shard-query", "shard-routing",
        ]
        with ctx.nested_under(None):  # a no-op without a frame
            assert ctx.current_frame() is None


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("c").add(2)
        reg.counter("c").add()
        assert reg.counter("c").value == 3
        with pytest.raises(ValueError):
            reg.counter("c").add(-1)
        reg.gauge("g").set(4.5)
        assert reg.gauge("g").value == 4.5
        out = reg.collect()
        assert out["c"] == {"type": "counter", "value": 3}
        assert out["g"]["value"] == 4.5
        reg.reset()
        assert reg.counter("c").value == 0

    def test_histogram_quantile_vs_reference(self):
        """Interpolated quantile error is bounded by one bucket width."""
        buckets = tuple(np.linspace(0.1, 1.0, 10))
        width = 0.1
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 1.0, size=500)
        h = Histogram("t", buckets=buckets)
        for v in values:
            h.observe(v)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            reference = float(np.quantile(values, q))
            assert abs(h.quantile(q) - reference) <= width + 1e-9
        assert h.mean == pytest.approx(float(np.mean(values)))
        assert h.count == 500

    def test_histogram_edge_cases(self):
        h = Histogram("t", buckets=(1.0, 2.0))
        assert h.quantile(0.5) == 0.0  # empty
        h.observe(5.0)  # overflow bucket
        assert h.quantile(1.0) == 5.0
        assert h.quantile(0.0) >= 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(2.0, 1.0))

    def test_histogram_quantile_exact_extremes(self):
        """q=0.0 / q=1.0 return the exact observed min/max, not a
        bucket-interpolated estimate."""
        h = Histogram("t", buckets=(1.0, 2.0, 4.0))
        for v in (0.3, 1.7, 3.9):
            h.observe(v)
        assert h.quantile(0.0) == 0.3
        assert h.quantile(1.0) == 3.9
        # Interior quantiles stay interpolated within their bucket.
        assert 1.0 <= h.quantile(0.5) <= 2.0

    def test_histogram_merge(self):
        a = Histogram("t", buckets=(1.0, 2.0))
        b = Histogram("t", buckets=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(5.0)
        a.merge(b)
        assert a.count == 3
        assert a.quantile(0.0) == 0.5
        assert a.quantile(1.0) == 5.0
        with pytest.raises(ValueError):
            a.merge(Histogram("t", buckets=(3.0,)))

    def test_default_registry_is_shared(self):
        assert active_registry() is active_registry()


class TestEvents:
    def _event(self, **overrides):
        base = dict(
            phase="filter", level=0, dmtm_resolution=0.05,
            msdn_resolution=0.25, active_before=5, active_after=3,
            kth_lb=10.0, kth_ub=20.0, done=False, cpu_seconds=0.001,
            logical_reads=4, physical_reads=2,
            reads_by_class={"dmtm": 2},
        )
        base.update(overrides)
        return LevelEvent(**base)

    def test_mapping_protocol(self):
        event = self._event()
        assert event["level"] == 0
        assert event["phase"] == "filter"
        with pytest.raises(KeyError):
            event["nope"]
        assert "kth_ub" in event.keys()
        assert dict(**event)["active_after"] == 3

    def test_round_trip(self):
        event = self._event(kth_ub=math.inf)
        again = LevelEvent.from_dict(event.to_dict())
        assert again == event

    def test_from_dict_ignores_unknown_keys(self):
        data = self._event().to_dict()
        data["future_field"] = 1
        assert LevelEvent.from_dict(data) == self._event()


class TestTracedQuery:
    @pytest.fixture()
    def traced(self, small_engine):
        """Run one query under a tracing context."""
        ctx = ObsContext(tracing=True)
        qv = small_engine.snap(700.0, 700.0)
        result = small_engine.query(qv, 3, step_length=2, obs=ctx)
        return result, ctx

    def test_trace_rounds_match_iterations(self, traced):
        result, _ctx = traced
        m = result.metrics
        assert len(result.filter_trace) == m.iterations_filter
        assert len(result.ranking_trace) == m.iterations_ranking
        assert all(e.phase == "filter" for e in result.filter_trace)
        assert all(e.phase == "ranking" for e in result.ranking_trace)

    def test_level_reads_sum_to_pages_accessed(self, traced):
        """The acceptance invariant: per-level physical page deltas
        account for every page the query touched (steps 1 and 3 are
        in-memory R-tree work)."""
        result, _ctx = traced
        events = result.filter_trace + result.ranking_trace
        assert sum(e.physical_reads for e in events) == (
            result.metrics.pages_accessed
        )
        assert sum(e.logical_reads for e in events) == (
            result.metrics.logical_reads
        )
        by_class: dict = {}
        for e in events:
            for cls, n in e.reads_by_class.items():
                by_class[cls] = by_class.get(cls, 0) + n
        assert by_class == result.metrics.reads_by_class

    def test_span_tree_shape(self, traced):
        result, ctx = traced
        root = result.root_span
        assert isinstance(root, Span)
        assert root.name == "query"
        assert root.attributes["entry"] == "query"
        assert root.attributes["query_vertex"] == result.query_vertex
        assert root.attributes["schedule"] == "s=2"
        assert root in ctx.finished_spans()
        steps = root.find("spatial-filter")
        assert [s.attributes["step"] for s in steps] == [1, 3]
        assert "k" in steps[0].attributes and "radius" in steps[1].attributes
        assert all("candidates" in s.attributes for s in steps)
        levels = root.find("interval-ranking")
        assert [e.phase for e in result.filter_trace + result.ranking_trace] == [
            s.attributes["phase"] for s in levels
        ]
        assert len(levels) == (
            result.metrics.iterations_filter
            + result.metrics.iterations_ranking
        )
        assert not any(s.name in UNTRACED_PHASES for s in root.walk())

    def test_jsonl_round_trip(self, traced, tmp_path):
        result, _ctx = traced
        record = query_record(result)
        assert record["schema"] == "repro.query_trace/v2"
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(path, [record]) == 1
        (loaded,) = read_jsonl(path)
        assert loaded == record
        trace = QueryTrace.from_dict(loaded)
        assert trace.events == result.filter_trace + result.ranking_trace
        assert trace.spans["name"] == "query"
        assert trace.metrics["pages_accessed"] == (
            result.metrics.pages_accessed
        )

    def test_render_is_explain(self, traced):
        result, _ctx = traced
        text = result.explain()
        assert text == render(result)
        assert "step 2 (filter C1)" in text
        assert "ms CPU" in text
        assert "hit rate" in text
        assert "pages by structure:" in text

    def test_untraced_query_has_no_span(self, small_engine):
        result = small_engine.query(small_engine.snap(700.0, 700.0), 2)
        assert result.root_span is None
        assert query_trace(result).spans is None

    def test_kernel_counters_advance(self, small_engine, obs_context):
        reg = obs_context.registry
        before = reg.counter("geodesic.dijkstra.settled").value
        small_engine.query(small_engine.snap(600.0, 900.0), 2)
        assert reg.counter("geodesic.dijkstra.settled").value > before
        assert reg.counter("geodesic.dijkstra.relaxations").value > 0


class TestBufferHitRate:
    def test_warm_vs_cold(self, small_engine):
        qv = small_engine.snap(700.0, 700.0)
        cold = small_engine.query(qv, 3, cold_cache=True)
        warm = small_engine.query(qv, 3, cold_cache=False)
        for r in (cold, warm):
            m = r.metrics
            assert m.logical_reads >= m.pages_accessed
            assert 0.0 <= m.buffer_hit_rate <= 1.0
        # The warm run re-reads pages the cold run faulted in.
        assert warm.metrics.pages_accessed <= cold.metrics.pages_accessed
        assert warm.metrics.buffer_hit_rate >= cold.metrics.buffer_hit_rate
