"""Observability stack: tracing spans, metrics, trace export.

Covers the contracts docs/observability.md promises: span nesting and
exception safety, histogram quantile accuracy (error bounded by one
bucket width), JSONL round-trips, and the per-query trace invariants —
trace rounds match the iteration counters, and the per-level physical
page reads sum to the query's ``pages_accessed``.
"""

import json
import math

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
from repro.obs.context import ObsContext, active_registry
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracing import NOOP_SPAN, Span, Tracer


class TestTracing:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("outer", k=5) as outer:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            with tracer.span("inner"):
                pass
        roots = tracer.finished()
        assert [s.name for s in roots] == ["outer"]
        assert outer.attributes == {"k": 5}
        assert [c.name for c in outer.children] == ["inner", "inner"]
        assert len(outer.find("inner")) == 2
        assert all(s.finished and s.duration >= 0 for s in outer.walk())

    def test_exception_safety(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        # Both spans were popped and recorded despite the raise.
        assert tracer.current() is None
        (outer,) = tracer.finished()
        assert outer.status == "error"
        assert "boom" in outer.error
        (inner,) = outer.children
        assert inner.status == "error"
        # The tracer is reusable afterwards.
        with tracer.span("again"):
            pass
        assert len(tracer.finished()) == 2

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", k=1)
        assert span is NOOP_SPAN
        with span as sp:
            sp.set_attribute("ignored", 1)  # must not raise
        assert tracer.finished() == []

    def test_take_clears(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert [s.name for s in tracer.take()] == ["a"]
        assert tracer.finished() == []

    def test_span_to_dict(self):
        tracer = Tracer()
        with tracer.span("outer", k=3):
            with tracer.span("inner"):
                pass
        d = tracer.finished()[0].to_dict()
        assert d["name"] == "outer"
        assert d["status"] == "ok"
        assert d["attributes"] == {"k": 3}
        assert d["children"][0]["name"] == "inner"
        json.dumps(d)  # JSON-ready


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
        return result, ctx.tracer

    def test_trace_rounds_match_iterations(self, traced):
        result, _tracer = traced
        m = result.metrics
        assert len(result.filter_trace) == m.iterations_filter
        assert len(result.ranking_trace) == m.iterations_ranking
        assert all(e.phase == "filter" for e in result.filter_trace)
        assert all(e.phase == "ranking" for e in result.ranking_trace)

    def test_level_reads_sum_to_pages_accessed(self, traced):
        """The acceptance invariant: per-level physical page deltas
        account for every page the query touched (steps 1 and 3 are
        in-memory R-tree work)."""
        result, _tracer = traced
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
        result, tracer = traced
        root = result.root_span
        assert isinstance(root, Span)
        assert root.name == "engine.query"
        assert root in tracer.finished()
        (mr3,) = root.find("mr3.query")
        for step in ("mr3.knn_2d", "mr3.filter", "mr3.range_2d", "mr3.ranking"):
            assert mr3.find(step), f"missing {step} span"
        levels = root.find("rank.level")
        assert len(levels) == (
            result.metrics.iterations_filter
            + result.metrics.iterations_ranking
        )

    def test_jsonl_round_trip(self, traced, tmp_path):
        result, _tracer = traced
        record = query_record(result)
        assert record["schema"] == "repro.query_trace/v1"
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(path, [record]) == 1
        (loaded,) = read_jsonl(path)
        assert loaded == record
        trace = QueryTrace.from_dict(loaded)
        assert trace.events == result.filter_trace + result.ranking_trace
        assert trace.spans["name"] == "engine.query"
        assert trace.metrics["pages_accessed"] == (
            result.metrics.pages_accessed
        )

    def test_render_is_explain(self, traced):
        result, _tracer = traced
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
