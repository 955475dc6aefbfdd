"""Differential tests for the flat CSR kernels.

The CSR kernels are a pure performance change: every search shape
must return exactly (``==``, not approx) what the dict reference
kernels of :mod:`repro.testkit.reference` return — distances,
parents, tie-broken winners.  The dispatchers pick a kernel from the
graph's size alone; the testkit search twin keeps the dict kernel for
builder graphs.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import GeodesicError
from repro.geodesic.csr import (
    CSRGraph,
    astar_csr,
    dijkstra_csr_with_parents,
    graph_dijkstra_with_parents,
    multi_source_dijkstra_csr,
)
from repro.geodesic.graph import KeyedGraph
from repro.testkit.reference import (
    KeyedGraphBuilder,
    csr_from_adjacency,
    dijkstra_reference,
    dijkstra_with_parents_reference,
    graph_dijkstra_with_parents_reference,
)
from test_trace_golden import reference_components


def random_geometric_graph(rng, n=None):
    """A connected-ish random graph with 3D positions and
    triangle-inequality-respecting weights (A* needs admissibility)."""
    import math

    if n is None:
        n = rng.randint(2, 40)
    adj = [[] for _ in range(n)]
    pos = [
        (rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 3))
        for _ in range(n)
    ]
    for u in range(n):
        for _ in range(rng.randint(1, 4)):
            v = rng.randrange(n)
            if v == u:
                continue
            w = math.dist(pos[u], pos[v]) + rng.uniform(0.0, 2.0)
            adj[u].append((v, w))
            adj[v].append((u, w))
    return adj, pos


class TestCSRStructure:
    def test_neighbor_order_preserved(self):
        adj = [[(1, 2.0), (2, 1.0)], [(0, 2.0)], [(0, 1.0)]]
        csr = csr_from_adjacency(adj)
        indptr, indices, weights = csr.lists()
        assert indptr == [0, 2, 3, 4]
        assert indices == [1, 2, 0, 0]
        assert weights == [2.0, 1.0, 2.0, 1.0]
        assert csr.num_nodes == 3
        assert csr.num_edges == 4

    def test_numpy_views_match_lists(self):
        rng = random.Random(3)
        adj, _pos = random_geometric_graph(rng)
        csr = csr_from_adjacency(adj)
        assert csr.indptr.tolist() == csr.lists()[0]
        assert csr.indices.tolist() == csr.lists()[1]
        assert csr.weights.tolist() == csr.lists()[2]
        assert csr.indptr.dtype == np.int64
        assert csr.weights.dtype == np.float64

    def test_empty_and_isolated_nodes(self):
        csr = csr_from_adjacency([[], [], []])
        assert csr.num_nodes == 3
        assert csr.num_edges == 0
        assert dijkstra_csr_with_parents(csr, 1) == ({1: 0.0}, {})

    def test_heuristic_requires_positions(self):
        csr = csr_from_adjacency([[(1, 1.0)], [(0, 1.0)]])
        with pytest.raises(GeodesicError, match="positions"):
            csr.heuristic_to(0)

    def test_source_out_of_range(self):
        csr = csr_from_adjacency([[(1, 1.0)], [(0, 1.0)]])
        with pytest.raises(GeodesicError, match="out of range"):
            dijkstra_csr_with_parents(csr, 7)
        with pytest.raises(GeodesicError, match="out of range"):
            graph_dijkstra_with_parents(csr, -1)
        with pytest.raises(GeodesicError, match="out of range"):
            multi_source_dijkstra_csr(csr, [(7, 0.0)])

    def test_csr_graph_accepts_arrays_and_lists(self):
        by_list = CSRGraph([0, 1, 2], [1, 0], [2.0, 2.0])
        by_array = CSRGraph(
            np.array([0, 1, 2]), np.array([1, 0]), np.array([2.0, 2.0])
        )
        assert by_list.lists() == by_array.lists()


class TestDifferentialSingleSource:
    """Exact equality against the dict reference, random graphs."""

    @pytest.mark.parametrize("seed", range(8))
    def test_full_sweep(self, seed):
        rng = random.Random(seed)
        adj, _pos = random_geometric_graph(rng)
        csr = csr_from_adjacency(adj)
        src = rng.randrange(len(adj))
        dist, _parent = dijkstra_csr_with_parents(csr, src)
        assert dist == dijkstra_reference(adj, src)

    @pytest.mark.parametrize("seed", range(8))
    def test_targets_and_max_dist(self, seed):
        rng = random.Random(100 + seed)
        adj, _pos = random_geometric_graph(rng)
        csr = csr_from_adjacency(adj)
        n = len(adj)
        src = rng.randrange(n)
        targets = {rng.randrange(n) for _ in range(rng.randint(1, 3))}
        max_dist = rng.choice([None, rng.uniform(1.0, 12.0)])
        assert dijkstra_csr_with_parents(
            csr, src, targets=set(targets), max_dist=max_dist
        ) == dijkstra_with_parents_reference(
            adj, src, targets=set(targets), max_dist=max_dist
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_with_parents_identical_trees(self, seed):
        """Not just distances: the tie-broken shortest-path tree must
        match, because upper-bound path keys feed the refined-region
        corridors."""
        rng = random.Random(200 + seed)
        adj, _pos = random_geometric_graph(rng)
        csr = csr_from_adjacency(adj)
        src = rng.randrange(len(adj))
        d1, p1 = dijkstra_csr_with_parents(csr, src)
        d2, p2 = dijkstra_with_parents_reference(adj, src)
        assert d1 == d2
        assert p1 == p2


class TestDifferentialMultiSource:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_source_composition(self, seed):
        """The single multi-source search must equal the reference
        composition: per-source Dijkstra, then a strict-< minimum of
        ``offset + distance`` (first source wins ties)."""
        rng = random.Random(300 + seed)
        adj, _pos = random_geometric_graph(rng)
        csr = csr_from_adjacency(adj)
        n = len(adj)
        sources = [
            (rng.randrange(n), rng.uniform(0.0, 3.0))
            for _ in range(rng.randint(1, 4))
        ]
        found = multi_source_dijkstra_csr(csr, sources)
        per = [dijkstra_reference(adj, s) for s, _off in sources]
        for node in range(n):
            best = None
            best_rank = None
            for rank, (_s, off) in enumerate(sources):
                d = per[rank].get(node)
                if d is None:
                    continue
                value = off + d
                if best is None or value < best:
                    best = value
                    best_rank = rank
            assert found.value.get(node) == best
            if best is not None:
                assert found.origin[node] == best_rank

    def test_raw_and_path(self):
        adj = [[(1, 1.0)], [(0, 1.0), (2, 1.0)], [(1, 1.0)]]
        found = multi_source_dijkstra_csr(adj_csr := csr_from_adjacency(adj), [(0, 5.0), (2, 0.0)])
        assert adj_csr.num_nodes == 3
        # Node 1 is 1.0 from both sources; source 2's offset is lower.
        assert found.value[1] == 1.0
        assert found.raw[1] == 1.0
        assert found.origin[1] == 1
        assert found.path_to(1) == [2, 1]
        # Even source 0 settles cheaper from source 2 (0.0 + 2.0 beats
        # its own 5.0 offset) — the cross-anchor minimum applies to
        # source nodes too.
        assert found.value[0] == 2.0
        assert found.raw[0] == 2.0
        assert found.origin[0] == 1
        assert found.path_to(0) == [2, 1, 0]
        # Source 2 settles from itself with raw 0.
        assert found.value[2] == 0.0
        assert found.raw[2] == 0.0
        assert found.path_to(2) == [2]

    def test_empty_sources(self):
        csr = csr_from_adjacency([[], []])
        found = multi_source_dijkstra_csr(csr, [])
        assert found.value == {}

    def test_targets_early_exit_covers_all_targets(self):
        rng = random.Random(77)
        adj, _pos = random_geometric_graph(rng, n=30)
        csr = csr_from_adjacency(adj)
        sources = [(0, 0.5), (5, 0.0)]
        full = multi_source_dijkstra_csr(csr, sources)
        targets = {3, 9, 21}
        partial = multi_source_dijkstra_csr(csr, sources, targets=set(targets))
        for t in targets & set(full.value):
            assert partial.value[t] == full.value[t]


class TestDifferentialAStar:
    @pytest.mark.parametrize("seed", range(8))
    def test_value_equals_dijkstra(self, seed):
        rng = random.Random(400 + seed)
        adj, pos = random_geometric_graph(rng)
        csr = csr_from_adjacency(adj, positions=pos)
        n = len(adj)
        src = rng.randrange(n)
        tgt = rng.randrange(n)
        want = dijkstra_reference(adj, src, targets={tgt}).get(tgt)
        assert astar_csr(csr, src, tgt) == want

    def test_source_equals_target(self):
        csr = csr_from_adjacency([[(1, 1.0)], [(0, 1.0)]], positions=[(0, 0, 0), (1, 0, 0)])
        assert astar_csr(csr, 1, 1) == 0.0

    def test_unreachable_returns_none(self):
        csr = csr_from_adjacency([[], []], positions=[(0, 0, 0), (5, 0, 0)])
        assert astar_csr(csr, 0, 1) is None


def _path_graphs(n: int = 8):
    """A weighted path over nodes ``0 .. n - 1`` as a builder graph and
    as the compiled keyed graph over the same adjacency."""
    builder = KeyedGraphBuilder()
    for i in range(n - 1):
        builder.add_edge(i, i + 1, 1.0 + 0.25 * i)
    keys = [builder.key_of(i) for i in range(len(builder))]
    return builder, KeyedGraph(keys, csr_from_adjacency(builder.adjacency))


class TestDispatchers:
    def test_reference_twin_follows_graph_form(self, monkeypatch):
        """The testkit search twin runs the dict kernel on a builder
        graph and the production kernels on a compiled one, with
        identical answers."""
        from repro.testkit import reference

        builder, compiled = _path_graphs()
        dict_kernel = reference.dijkstra_with_parents_reference
        calls = []

        def counted(*args):
            calls.append(args)
            return dict_kernel(*args)

        monkeypatch.setattr(reference, "dijkstra_with_parents_reference", counted)
        on_builder = graph_dijkstra_with_parents_reference(builder, 0, {5})
        assert len(calls) == 1
        on_compiled = graph_dijkstra_with_parents_reference(compiled, 0, {5})
        assert len(calls) == 1
        on_production = graph_dijkstra_with_parents(compiled, 0, {5})
        assert on_builder == on_compiled == on_production
        with pytest.raises(GeodesicError, match="compiled graph"):
            graph_dijkstra_with_parents_reference(
                builder, 0, region=np.ones(len(builder), dtype=bool)
            )

    def test_compiled_kernel_follows_graph_size(self, obs_context, monkeypatch):
        """Compiled graphs below MIN_FRONTIER_NODES run the heap
        kernels, larger ones the bucket kernel — same answers."""
        from repro.geodesic import frontier

        buckets = obs_context.registry.counter("geodesic.frontier.buckets")
        _builder, g = _path_graphs()
        csr = g.csr
        before = buckets.value
        small = (
            graph_dijkstra_with_parents(g, 0),
            multi_source_dijkstra_csr(csr, [(0, 0.0), (7, 2.0)]),
        )
        assert buckets.value == before
        monkeypatch.setattr(frontier, "MIN_FRONTIER_NODES", 2)
        large = (
            graph_dijkstra_with_parents(g, 0),
            multi_source_dijkstra_csr(csr, [(0, 0.0), (7, 2.0)]),
        )
        assert buckets.value > before
        assert small == large


class TestCounters:
    def test_kernels_report_shared_counters(self, obs_context):
        reg = obs_context.registry
        calls = reg.counter("geodesic.dijkstra.calls")
        settled = reg.counter("geodesic.dijkstra.settled")
        before = (calls.value, settled.value)
        csr = csr_from_adjacency([[(1, 1.0)], [(0, 1.0)]])
        dijkstra_csr_with_parents(csr, 0)
        assert calls.value == before[0] + 1
        assert settled.value == before[1] + 2


class TestEndToEndIdentity:
    """The whole query surface must not notice whether the array data
    path or the reference implementations compute it."""

    @pytest.fixture(scope="class")
    def both_modes(self):
        from repro.testkit.generators import standard_engine, standard_mesh

        mesh = standard_mesh("BH", 13)

        def run():
            # fresh=True: each side must rebuild its own structures.
            engine = standard_engine("BH", 13, density=8.0, seed=3, fresh=True)
            out = []
            for qv in (10, 40, 88):
                result = engine.query(qv, 3, step_length=2)
                out.append(
                    (
                        tuple(result.object_ids),
                        tuple(result.intervals),
                        result.metrics.logical_reads,
                        result.metrics.pages_accessed,
                    )
                )
            center = mesh.xy_bounds().center
            result = engine.query_point(float(center[0]), float(center[1]), 3)
            out.append(
                (
                    tuple(result.object_ids),
                    tuple(result.intervals),
                    result.metrics.logical_reads,
                    result.metrics.pages_accessed,
                )
            )
            return out

        csr_answers = run()
        with reference_components():
            ref_answers = run()
        return csr_answers, ref_answers

    def test_results_identical(self, both_modes):
        csr_answers, ref_answers = both_modes
        assert [a[0] for a in csr_answers] == [a[0] for a in ref_answers]

    def test_intervals_bit_identical(self, both_modes):
        csr_answers, ref_answers = both_modes
        assert [a[1] for a in csr_answers] == [a[1] for a in ref_answers]

    def test_page_counts_identical(self, both_modes):
        csr_answers, ref_answers = both_modes
        assert [a[2:] for a in csr_answers] == [a[2:] for a in ref_answers]

    def test_golden_trace_identical_across_modes(self):
        """The pinned golden query produces the same normalized trace
        record on both sides — the goldens in tests/golden hold
        whichever implementation runs."""
        from repro.obs.export import normalize_record, query_record
        from test_trace_golden import _golden_result

        csr_record = normalize_record(query_record(_golden_result()))
        with reference_components():
            ref_record = normalize_record(query_record(_golden_result()))
        assert csr_record == ref_record
