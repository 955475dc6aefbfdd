"""Unit tests for keyed graphs: the production form (keys over one
compiled CSR) and the testkit builder grown edge by edge."""

import numpy as np
import pytest

from repro.errors import GeodesicError
from repro.geodesic.csr import CSRGraph
from repro.geodesic.graph import KeyedGraph
from repro.testkit.reference import (
    KeyedGraphBuilder,
    csr_from_adjacency,
    dijkstra_reference as dijkstra,
)


class TestKeyedGraph:
    def test_add_node_idempotent(self):
        g = KeyedGraphBuilder()
        a = g.add_node("a")
        assert g.add_node("a") == a
        assert len(g) == 1

    def test_contains(self):
        g = KeyedGraphBuilder()
        g.add_node(("v", 1))
        assert ("v", 1) in g
        assert ("v", 2) not in g

    def test_add_edge_creates_nodes(self):
        g = KeyedGraphBuilder()
        g.add_edge("x", "y", 2.0)
        assert len(g) == 2
        assert g.num_edges() == 1

    def test_self_loop_ignored(self):
        g = KeyedGraphBuilder()
        g.add_edge("x", "x", 1.0)
        assert g.num_edges() == 0

    def test_negative_weight_rejected(self):
        g = KeyedGraphBuilder()
        with pytest.raises(GeodesicError):
            g.add_edge("a", "b", -1.0)

    def test_unknown_key_rejected(self):
        g = KeyedGraphBuilder()
        with pytest.raises(GeodesicError):
            g.node_id("missing")

    def test_key_roundtrip(self):
        g = KeyedGraphBuilder()
        nid = g.add_node(("s", 3, 1))
        assert g.key_of(nid) == ("s", 3, 1)

    def test_dijkstra_over_keyed_graph(self):
        g = KeyedGraphBuilder()
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "c", 2.0)
        g.add_edge("a", "c", 10.0)
        dist = dijkstra(g.adjacency, g.node_id("a"))
        assert dist[g.node_id("c")] == pytest.approx(3.0)

    def test_degree(self):
        g = KeyedGraphBuilder()
        g.add_edge("a", "b", 1.0)
        g.add_edge("a", "c", 1.0)
        assert g.degree("a") == 2
        assert g.degree("b") == 1


class TestCompiledKeyedGraph:
    def _graph(self):
        builder = KeyedGraphBuilder()
        builder.add_edge("a", "b", 1.0)
        builder.add_edge("b", "c", 2.0)
        keys = [builder.key_of(i) for i in range(len(builder))]
        return KeyedGraph(keys, csr_from_adjacency(builder.adjacency)), builder

    def test_keys_name_csr_rows(self):
        graph, builder = self._graph()
        assert len(graph) == 3 and "c" in graph and "z" not in graph
        for key in "abc":
            assert graph.node_id(key) == builder.node_id(key)
            assert graph.key_of(graph.node_id(key)) == key
        assert isinstance(graph.csr, CSRGraph)
        assert graph.csr.num_nodes == len(graph)

    def test_unknown_key_rejected(self):
        graph, _builder = self._graph()
        with pytest.raises(GeodesicError, match="unknown node key"):
            graph.node_id("z")

    def test_duplicate_keys_rejected(self):
        csr = CSRGraph(np.zeros(3, dtype=np.int64), [], [])
        with pytest.raises(GeodesicError, match="not unique"):
            KeyedGraph(["a", "a"], csr)
