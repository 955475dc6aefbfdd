"""Phase profiles, scoped ObsContexts and perf-diff attribution.

Pins the PR's acceptance invariants:

* a profiled query is bit-identical to an unprofiled one (same ids,
  intervals and logical reads) and profiling is off by default;
* phase self-seconds partition wall time — they sum to the root's
  total exactly, which is what lets ``repro.obs.diff`` attribute an
  end-to-end delta with no unexplained residue;
* profile counter totals reconcile with ``QueryMetrics`` (logical /
  physical reads, per-class reads) and with the registry's kernel
  counters, under the registry's names;
* ObsContexts isolate: two engines profiling concurrently never see
  each other's counters, and nobody resets a global to get there.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.batch import BatchQuery, BatchQueryExecutor
from repro.core.engine import SurfaceKNNEngine
from repro.obs.context import (
    NOOP_FRAME,
    ObsContext,
    current,
    default_context,
)
from repro.obs.diff import attribute, load_run
from repro.obs.diff import main as diff_main
from repro.obs.export import write_jsonl
from repro.obs.profile import (
    PHASES,
    PROFILE_SCHEMA,
    UNTRACED_PHASES,
    PhaseNode,
    Profile,
    profile_from_record,
    profile_record,
)
from repro.shard import ShardedEngine, uniform_grid_objects
from repro.terrain.synthetic import fractal_dem


# ----------------------------------------------------------------------
# Profile side of the seam: frames of a profiling context
# ----------------------------------------------------------------------


class TestProfiler:
    def test_phases_aggregate_by_path(self):
        ctx = ObsContext(profiling=True)
        with ctx.phase("query"):
            for _ in range(3):
                with ctx.phase("graph-kernel"):
                    pass
            with ctx.phase("page-io"):
                with ctx.phase("graph-kernel"):
                    pass
        (profile,) = ctx.take_profiles()
        root = profile.root
        assert root.name == "query" and root.calls == 1
        assert root.children["graph-kernel"].calls == 3
        # Same phase under a different parent is a different node.
        assert root.children["page-io"].children["graph-kernel"].calls == 1

    def test_leaf_is_the_aggregated_child_of_the_open_phase(self):
        ctx = ObsContext(profiling=True)
        assert ctx.leaf("page-io") is None  # no frame open
        assert ObsContext().leaf("page-io") is None
        assert ObsContext(tracing=True).leaf("page-io") is None
        with ctx.phase("query") as root:
            node = ctx.leaf("page-io")
            assert node is root.node.children["page-io"]
            assert ctx.leaf("page-io") is node
            assert ctx.current_frame() is root  # nothing was pushed
            node.calls += 1
            node.count("physical_reads", 1)
        (profile,) = ctx.take_profiles()
        assert profile.root.children["page-io"].calls == 1
        assert profile.counters_by_phase()["page-io"] == {"physical_reads": 1}

    def test_reentrant_phase_does_not_double_bill(self):
        """A kernel calling another kernel (shortest_path →
        dijkstra_with_parents) nests graph-kernel inside graph-kernel;
        the aggregated self-seconds must still equal the outer
        frame's wall time, not twice it."""
        ctx = ObsContext(profiling=True)
        with ctx.phase("query"):
            with ctx.phase("graph-kernel") as outer:
                with ctx.phase("graph-kernel") as inner:
                    pass
        (profile,) = ctx.take_profiles()
        assert inner.node is outer.node.children["graph-kernel"]
        by_phase = profile.self_seconds_by_phase()
        assert by_phase["graph-kernel"] == pytest.approx(
            outer.node.seconds, abs=1e-12
        )
        assert sum(by_phase.values()) == pytest.approx(
            profile.total_seconds, abs=1e-12
        )

    def test_self_seconds_partition_wall_time(self):
        ctx = ObsContext(profiling=True)
        with ctx.phase("query"):
            with ctx.phase("interval-ranking"):
                with ctx.phase("graph-kernel"):
                    pass
            with ctx.phase("refinement"):
                pass
        (profile,) = ctx.take_profiles()
        by_phase = profile.self_seconds_by_phase()
        assert sum(by_phase.values()) == pytest.approx(
            profile.total_seconds, abs=1e-12
        )

    def test_count_attributes_to_innermost(self):
        """``count`` feeds the registry and the innermost frame under
        one name; ``tally`` feeds the frame only."""
        ctx = ObsContext(profiling=True)
        ctx.count("orphan", 5)  # no open frame: registry only
        ctx.tally("dropped", 2)  # no open frame: silently dropped
        with ctx.phase("query"):
            ctx.count("a", 1)
            with ctx.phase("graph-kernel"):
                ctx.count("a", 2)
                ctx.tally("hits", 4)
        (profile,) = ctx.take_profiles()
        assert profile.root.counters == {"a": 1}
        assert profile.root.children["graph-kernel"].counters == {
            "a": 2, "hits": 4,
        }
        assert profile.counter("a") == 3
        assert profile.counter("orphan") == 0
        registry = ctx.registry.collect()
        assert registry["a"]["value"] == 3 and registry["orphan"]["value"] == 5
        assert "hits" not in registry and "dropped" not in registry

    def test_disabled_profiler_is_noop(self):
        ctx = ObsContext()
        assert ctx.phase("query") is NOOP_FRAME
        ctx.count("geodesic.dijkstra.settled", 9)  # registry still counts
        ctx.tally("logical_reads", 9)
        with ctx.phase("query") as frame:
            assert frame.node is None
        assert ctx.finished_profiles() == [] and ctx.take_profiles() == []
        assert ctx.registry.counter("geodesic.dijkstra.settled").value == 9
        # Tracing alone opens no frame for a leaf phase.
        assert ObsContext(tracing=True).phase("page-io") is NOOP_FRAME

    def test_exception_pops_frame_and_propagates(self):
        ctx = ObsContext(profiling=True)
        with pytest.raises(RuntimeError):
            with ctx.phase("query"):
                raise RuntimeError("boom")
        assert ctx.current_frame() is None
        (profile,) = ctx.take_profiles()  # the root still finished
        assert profile.root.calls == 1

    def test_record_round_trip(self):
        ctx = ObsContext(profiling=True)
        with ctx.phase("query"):
            ctx.count("geodesic.dijkstra.settled", 7)
            with ctx.phase("page-io"):
                ctx.tally("physical.dmtm", 2)
        (profile,) = ctx.take_profiles()
        record = profile_record(profile, label="t/k=3")
        assert record["schema"] == PROFILE_SCHEMA
        again = profile_from_record(json.loads(json.dumps(record)))
        assert again.label == "t/k=3"
        assert again.total_seconds == profile.total_seconds
        assert again.total_counters() == profile.total_counters()
        assert again.self_seconds_by_phase() == (
            profile.self_seconds_by_phase()
        )
        with pytest.raises(ValueError):
            profile_from_record({"schema": "repro.query_trace/v2"})


# ----------------------------------------------------------------------
# End-to-end: profiled queries
# ----------------------------------------------------------------------


class TestQueryProfile:
    @pytest.fixture()
    def profiled(self, small_engine):
        ctx = ObsContext("t", profiling=True)
        qv = small_engine.snap(700.0, 700.0)
        result = small_engine.query(qv, 3, step_length=2, obs=ctx)
        return result, ctx

    def test_profiling_off_by_default(self, small_engine):
        result = small_engine.query(small_engine.snap(700.0, 700.0), 3)
        assert result.profile() is None

    def test_profiled_query_is_bit_identical(self, small_engine):
        qv = small_engine.snap(600.0, 900.0)
        plain = small_engine.query(qv, 3, step_length=2)
        ctx = ObsContext("t", profiling=True)
        profiled = small_engine.query(qv, 3, step_length=2, obs=ctx)
        assert profiled.object_ids == plain.object_ids
        assert profiled.intervals == plain.intervals
        assert profiled.metrics.logical_reads == plain.metrics.logical_reads
        assert profiled.metrics.pages_accessed == (
            plain.metrics.pages_accessed
        )

    def test_phase_names_come_from_catalog(self, small_engine):
        """Every frame of every entry point, traced and profiled, is
        named from the catalog; no leaf phase shows up as a span, and
        every other profiled phase does."""
        ctx = ObsContext("t-catalog", tracing=True, profiling=True)
        qv = small_engine.snap(700.0, 700.0)
        x, y = small_engine.mesh.vertices[qv][:2] + 7.0  # inside a facet
        small_engine.query(qv, 3, step_length=2, obs=ctx)
        with ctx.activate():
            small_engine.query_point(x, y, 3, step_length=2)
            small_engine.range_query(qv, 400.0)
            small_engine.obstacle_query(qv, 3, max_slope_deg=55.0)
            # A landmark engine and a sharded engine open phases of
            # their own.
            lm_engine = small_engine.with_landmarks(3)
        lm_engine.query(qv, 3, obs=ctx)
        dem = fractal_dem(17, 90.0, 500.0, 0.65, seed=7)
        sharded = ShardedEngine(
            dem, objects=uniform_grid_objects(dem, 24, seed=2), grid=(2, 2),
            obs=ctx,
        )
        sharded.query(2 * dem.cols + 2, 3)
        profiles = ctx.take_profiles()
        spans = ctx.take_spans()
        assert [p.root.name for p in profiles] == [
            "query", "query", "query", "query", "landmark-build", "query",
            "shard-query",
        ]
        assert [s.name for s in spans] == [p.root.name for p in profiles]
        profiled = {node.name for p in profiles for node in p.root.walk()}
        traced = {s.name for root in spans for s in root.walk()}
        assert {
            "spatial-filter", "interval-ranking", "bound-composition",
            "refinement", "landmark-bounds", "shard-routing", "shard-build",
            "page-io",
        } <= profiled
        assert profiled <= set(PHASES) and traced <= set(PHASES)
        assert not traced & UNTRACED_PHASES
        assert profiled - traced <= UNTRACED_PHASES

    def test_tree_sum_equals_root_time(self, profiled):
        result, _ctx = profiled
        profile = result.profile()
        by_phase = profile.self_seconds_by_phase()
        assert sum(by_phase.values()) == pytest.approx(
            profile.total_seconds, abs=1e-9
        )
        for node in profile.root.walk():
            assert node.child_seconds <= node.seconds + 1e-9

    def test_counters_reconcile_with_query_metrics(self, profiled):
        result, _ctx = profiled
        profile = result.profile()
        totals = profile.total_counters()
        m = result.metrics
        assert totals.get("logical_reads", 0) == m.logical_reads
        assert totals.get("physical_reads", 0) == m.pages_accessed
        by_class = {
            key[len("physical."):]: value
            for key, value in totals.items()
            if key.startswith("physical.")
        }
        assert by_class == m.reads_by_class

    def test_counters_reconcile_with_registry(self, small_engine):
        ctx = ObsContext("t", profiling=True)
        calls = ctx.registry.counter("geodesic.dijkstra.calls")
        settled = ctx.registry.counter("geodesic.dijkstra.settled")
        relax = ctx.registry.counter("geodesic.dijkstra.relaxations")
        before = (calls.value, settled.value, relax.value)
        result = small_engine.query(
            small_engine.snap(700.0, 700.0), 3, step_length=2, obs=ctx
        )
        totals = result.profile().total_counters()
        for counter, start in zip((calls, settled, relax), before):
            assert totals.get(counter.name, 0) == counter.value - start

    def test_profiler_collects_finished_roots(self, small_engine):
        ctx = ObsContext("t", profiling=True)
        for k in (2, 3):
            small_engine.query(
                small_engine.snap(700.0, 700.0), k, step_length=2, obs=ctx
            )
        profiles = ctx.take_profiles()
        assert len(profiles) == 2
        assert ctx.take_profiles() == []  # drained

    def test_render_tree_is_presentable(self, profiled):
        result, _ctx = profiled
        text = result.profile().render_tree()
        assert "profile: mr3" in text
        assert "query" in text and "100.0%" in text
        assert "interval-ranking" in text


class TestFrontierCounters:
    """The ``geodesic.frontier.*`` counters reconcile with the shared
    kernel counters and with the profile's phase-attributed counts.

    The graph must clear ``MIN_FRONTIER_NODES`` — smaller searches
    run the heap kernels and emit no frontier counters (that
    delegation is itself pinned here).
    """

    def _big_graph(self, n=700, seed=11):
        import math
        import random

        from repro.testkit.reference import csr_from_adjacency

        rng = random.Random(seed)
        adj = [[] for _ in range(n)]
        pos = [(rng.uniform(0, 50), rng.uniform(0, 50), 0.0) for _ in range(n)]
        for u in range(n):
            for _ in range(3):
                v = rng.randrange(n)
                if v == u:
                    continue
                w = math.dist(pos[u], pos[v]) + 0.01
                adj[u].append((v, w))
                adj[v].append((u, w))
        # Ring to keep it connected.
        for u in range(n):
            v = (u + 1) % n
            adj[u].append((v, 1.0))
            adj[v].append((u, 1.0))
        return adj, csr_from_adjacency(adj)

    def test_counters_reconcile(self):
        from repro.geodesic.frontier import (
            MIN_FRONTIER_NODES,
            multi_source_frontier,
        )

        adj, csr = self._big_graph()
        assert csr.num_nodes >= MIN_FRONTIER_NODES
        ctx = ObsContext("frontier", profiling=True)
        names = (
            "geodesic.frontier.buckets",
            "geodesic.frontier.batch_relaxations",
            "geodesic.frontier.max_frontier",
            "geodesic.dijkstra.settled",
        )
        counters = [ctx.registry.counter(name) for name in names]
        before = [c.value for c in counters]
        with ctx.activate():
            with ctx.phase("query"):
                found = multi_source_frontier(csr, [(0, 0.5), (3, 0.0)])
        buckets, batches, max_frontier, settled = (
            c.value - b for c, b in zip(counters, before)
        )
        assert len(found.value) == csr.num_nodes  # full sweep settled all
        assert settled == csr.num_nodes
        # Each bucket settles at least one node; at most one batched
        # relaxation runs per bucket; no single bucket (and so no
        # accumulated per-call maximum) exceeds the settled total.
        assert 0 < buckets <= settled
        assert 0 < batches <= buckets
        assert 0 < max_frontier <= settled
        # The same deltas land on the open frames, under the same names.
        (profile,) = ctx.take_profiles()
        totals = profile.total_counters()
        for name, delta in zip(names, (buckets, batches, max_frontier, settled)):
            assert totals.get(name, 0) == delta
        assert "frontier-relaxation" in {
            node.name for node in profile.root.walk()
        }

    def test_single_source_bills_one_frontier_frame(self):
        """A bucketed single-source search is the bucket kernel's
        one-source case: one ``frontier-relaxation`` frame, no heap
        frame, and counters that reconcile as above."""
        from repro.geodesic.csr import graph_dijkstra_with_parents

        _adj, csr = self._big_graph()
        ctx = ObsContext("frontier", profiling=True)
        with ctx.activate():
            with ctx.phase("query"):
                dist, _parent = graph_dijkstra_with_parents(csr, 0)
        assert len(dist) == csr.num_nodes
        (profile,) = ctx.take_profiles()
        assert [node.name for node in profile.root.walk()] == [
            "query", "frontier-relaxation",
        ]
        frame = profile.root.children["frontier-relaxation"]
        assert frame.calls == 1
        totals = profile.total_counters()
        assert totals["geodesic.dijkstra.settled"] == csr.num_nodes
        assert 0 < totals["geodesic.frontier.batch_relaxations"] <= (
            totals["geodesic.frontier.buckets"]
        ) <= csr.num_nodes

    def test_small_graphs_emit_no_frontier_counters(self):
        from repro.geodesic.csr import graph_dijkstra_with_parents
        from repro.geodesic.frontier import MIN_FRONTIER_NODES
        from repro.testkit.reference import csr_from_adjacency

        csr = csr_from_adjacency([[(1, 1.0)], [(0, 1.0), (2, 2.0)], [(1, 2.0)]])
        assert csr.num_nodes < MIN_FRONTIER_NODES
        ctx = ObsContext("small", profiling=True)
        buckets = ctx.registry.counter("geodesic.frontier.buckets")
        settled = ctx.registry.counter("geodesic.dijkstra.settled")
        before = (buckets.value, settled.value)
        with ctx.activate():
            with ctx.phase("query"):
                graph_dijkstra_with_parents(csr, 0)
        assert buckets.value == before[0]  # delegated: no bucket counters
        assert settled.value == before[1] + 3  # heap twin still reports
        # The kernel is chosen before any frame opens: the search
        # bills one frame, the heap twin's, and no frontier frame.
        (profile,) = ctx.take_profiles()
        assert [node.name for node in profile.root.walk()] == [
            "query", "graph-kernel",
        ]
        assert profile.root.children["graph-kernel"].calls == 1


# ----------------------------------------------------------------------
# ObsContext scoping
# ----------------------------------------------------------------------


class TestObsContext:
    def test_activation_scopes_current(self):
        outer = ObsContext("outer")
        inner = ObsContext("inner")
        base = current()
        with outer.activate():
            assert current() is outer
            with inner.activate():
                assert current() is inner
            assert current() is outer
        assert current() is base

    def test_default_profiler_is_disabled(self):
        assert not current().profiling and not current().tracing
        assert current().phase("query") is NOOP_FRAME

    def test_child_inherits_enablement_and_absorb_merges(self):
        parent = ObsContext("p", tracing=True, profiling=True)
        child = parent.child("q0")
        assert child.profiling and child.tracing
        assert child.registry is not parent.registry
        child.registry.counter("settled").add(4)
        with child.phase("query"):
            pass
        parent.absorb(child)
        assert parent.registry.counter("settled").value == 4
        assert len(parent.finished_profiles()) == 1
        assert len(parent.finished_spans()) == 1
        assert child.finished_profiles() == [] == child.finished_spans()

    def test_two_engines_profile_concurrently_without_crosstalk(
        self, small_engine, ep_engine
    ):
        """The isolation acceptance test: two engines, two contexts,
        concurrent queries — disjoint telemetry, no global resets."""
        ctx_a = ObsContext("a", profiling=True)
        ctx_b = ObsContext("b", profiling=True)
        default_calls = current().registry.counter(
            "geodesic.dijkstra.calls"
        )
        default_before = default_calls.value
        errors: list[BaseException] = []

        def run(engine, ctx, n):
            try:
                qv = engine.snap(700.0, 700.0)
                for _ in range(n):
                    engine.query(qv, 2, step_length=2, obs=ctx)
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(small_engine, ctx_a, 2)),
            threading.Thread(target=run, args=(ep_engine, ctx_b, 3)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(ctx_a.finished_profiles()) == 2
        assert len(ctx_b.finished_profiles()) == 3
        for ctx in (ctx_a, ctx_b):
            assert ctx.registry.counter("geodesic.dijkstra.calls").value > 0
        # Nothing leaked into the process default registry.
        assert default_calls.value == default_before

    @pytest.mark.parametrize(
        "entry", ["query", "query_point", "range_query", "obstacle_query"]
    )
    def test_entry_points_report_into_engine_context(self, bh_mesh, entry):
        """Every entry point of an engine built with ``obs=ctx`` runs
        under ctx: its kernel counters, and one ``query`` root frame —
        one profile and one span naming the entry point — reachable
        from the result."""
        ctx = ObsContext("engine", tracing=True, profiling=True)
        engine = SurfaceKNNEngine(bh_mesh, density=10.0, seed=3, obs=ctx)
        qv = engine.snap(700.0, 700.0)
        x, y = engine.mesh.vertices[qv][:2] + 7.0  # inside a facet
        run = {
            "query": lambda: engine.query(qv, 3, step_length=2),
            "query_point": lambda: engine.query_point(x, y, 3, step_length=2),
            "range_query": lambda: engine.range_query(qv, 400.0),
            "obstacle_query": lambda: engine.obstacle_query(
                qv, 3, max_slope_deg=55.0
            ),
        }[entry]
        default_calls = default_context().registry.counter(
            "geodesic.dijkstra.calls"
        )
        default_before = default_calls.value
        result = run()
        assert default_calls.value == default_before
        assert ctx.registry.counter("geodesic.dijkstra.calls").value > 0
        assert any(name.startswith("engine.queries.") for name in ctx.collect())
        (profile,) = ctx.finished_profiles()
        assert profile.root.name == "query"
        assert profile.root is result.profile().root
        (root,) = ctx.finished_spans()
        assert root.name == "query"
        assert root.attributes["entry"] == entry
        assert root.attributes["query_vertex"] == result.query_vertex
        assert root is result.root_span
        assert profile.total_seconds == root.duration

    def test_embedded_query_labelled_like_query(self, bh_mesh):
        """An embedded-point query reports ``mr3/s=N`` as ``query``
        does: in ``method``, in the ``engine.queries.*`` counter and in
        the ``explain()`` header."""
        ctx = ObsContext("engine")
        engine = SurfaceKNNEngine(bh_mesh, density=10.0, seed=3, obs=ctx)
        x, y = engine.mesh.vertices[144][:2] + 7.0  # inside a facet
        embedded = engine.query_point(x, y, 3)
        assert embedded.method == "mr3/s=1"
        assert [
            name for name in ctx.collect() if name.startswith("engine.queries.")
        ] == ["engine.queries.mr3/s=1"]
        header = embedded.explain().splitlines()[0]
        assert header.startswith("mr3/s=1 query at vertex 144,")
        assert header == engine.query(144, 3).explain().splitlines()[0]

    def test_batch_executor_merges_child_contexts(self, bh_mesh):
        engine = SurfaceKNNEngine(bh_mesh, density=10.0, seed=3)
        ctx = ObsContext("batch", profiling=True)
        qv = engine.snap(700.0, 700.0)
        specs = [BatchQuery(vertex=qv, k=k, step_length=2) for k in (2, 3, 4)]
        report = BatchQueryExecutor(engine, workers=2, obs=ctx).run(specs)
        assert not report.errors
        assert len(ctx.finished_profiles()) == len(specs)
        assert ctx.registry.counter("geodesic.dijkstra.calls").value > 0


# ----------------------------------------------------------------------
# obs.diff attribution
# ----------------------------------------------------------------------


def _synthetic_record(query_s, kernel_s, io_s, reads_dmtm):
    root = PhaseNode("query")
    root.calls = 1
    root.seconds = query_s
    kernel = PhaseNode("graph-kernel")
    kernel.calls = 4
    kernel.seconds = kernel_s
    kernel.counters = {
        "geodesic.dijkstra.settled": 100,
        "geodesic.dijkstra.relaxations": 400,
    }
    io = PhaseNode("page-io")
    io.calls = reads_dmtm
    io.seconds = io_s
    io.counters = {
        "physical_reads": reads_dmtm, "physical.dmtm": reads_dmtm,
    }
    root.children = {"graph-kernel": kernel, "page-io": io}
    return Profile(root, label="synthetic").to_record()


class TestDiff:
    def test_self_diff_is_all_zero(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_jsonl(path, [_synthetic_record(1.0, 0.4, 0.1, 20)])
        report = attribute(load_run(str(path)), load_run(str(path)))
        assert report["end_to_end"]["delta_seconds"] == 0.0
        assert all(p["delta_seconds"] == 0.0 for p in report["phases"])
        assert all(c["delta_reads"] == 0 for c in report["page_classes"])

    def test_phase_deltas_sum_to_end_to_end_delta(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_jsonl(a, [
            _synthetic_record(1.0, 0.4, 0.1, 20),
            _synthetic_record(2.0, 1.0, 0.5, 30),
        ])
        write_jsonl(b, [
            _synthetic_record(1.5, 0.9, 0.1, 20),
            _synthetic_record(2.0, 1.0, 0.7, 60),
        ])
        report = attribute(load_run(str(a)), load_run(str(b)))
        delta = report["end_to_end"]["delta_seconds"]
        assert delta == pytest.approx(0.5)
        assert sum(p["delta_seconds"] for p in report["phases"]) == (
            pytest.approx(delta)
        )
        assert sum(p["share"] for p in report["phases"]) == pytest.approx(1.0)
        # Sorted by |delta|: the kernel regression leads the table.
        assert report["phases"][0]["phase"] == "graph-kernel"
        (dmtm,) = report["page_classes"]
        assert dmtm["page_class"] == "dmtm"
        assert dmtm["delta_reads"] == 30

    def test_rejects_mixed_or_unknown_schemas(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        write_jsonl(bad, [
            _synthetic_record(1.0, 0.4, 0.1, 5),
            {"schema": "repro.bench/v1", "total": 1.0, "cpu": 0.5},
        ])
        with pytest.raises(SystemExit):
            load_run(str(bad))
        empty = tmp_path / "empty.jsonl"
        write_jsonl(empty, [])
        with pytest.raises(SystemExit):
            load_run(str(empty))

    def test_bench_records_diff_via_cpu_io_split(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        record = {
            "schema": "repro.bench/v1", "total": 2.0, "cpu": 1.5,
            "pages_dmtm": 10, "dijkstra_settled": 100,
        }
        write_jsonl(a, [record])
        write_jsonl(b, [dict(record, total=3.0, cpu=1.5, pages_dmtm=25)])
        report = attribute(load_run(str(a)), load_run(str(b)))
        assert report["kind"] == "bench"
        phases = {p["phase"]: p["delta_seconds"] for p in report["phases"]}
        assert phases == {"cpu": pytest.approx(0.0), "io": pytest.approx(1.0)}

    def test_cli_writes_json_report(self, tmp_path, capsys):
        run = tmp_path / "run.jsonl"
        out = tmp_path / "report.json"
        write_jsonl(run, [_synthetic_record(1.0, 0.4, 0.1, 20)])
        assert diff_main([str(run), str(run), "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "end-to-end delta: +0.000000 s" in text
        assert "TOTAL" in text
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.profile_diff/v1"
        assert report["end_to_end"]["delta_seconds"] == 0.0
