"""Unit tests for the dict Dijkstra oracle (cross-checked against
networkx)."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import GeodesicError
from repro.testkit.reference import (
    dijkstra_reference as dijkstra,
    dijkstra_with_parents_reference as dijkstra_with_parents,
    shortest_path_reference as shortest_path,
)


def random_graph(n=60, p=0.08, seed=5):
    rng = np.random.default_rng(seed)
    adj = [[] for _ in range(n)]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = float(rng.uniform(0.1, 10.0))
                adj[u].append((v, w))
                adj[v].append((u, w))
                g.add_edge(u, v, weight=w)
    return adj, g


class TestAgainstNetworkx:
    def test_all_distances(self):
        adj, g = random_graph()
        dist = dijkstra(adj, 0)
        want = nx.single_source_dijkstra_path_length(g, 0)
        assert set(dist) == set(want)
        for node, d in want.items():
            assert dist[node] == pytest.approx(d)

    def test_multiple_sources(self):
        adj, g = random_graph(seed=9)
        for src in (3, 17, 42):
            dist = dijkstra(adj, src)
            want = nx.single_source_dijkstra_path_length(g, src)
            for node, d in want.items():
                assert dist[node] == pytest.approx(d)

    def test_path_is_valid(self):
        adj, g = random_graph(seed=2)
        want = nx.single_source_dijkstra_path_length(g, 0)
        target = max(want, key=want.get)
        d, path = shortest_path(adj, 0, target)
        assert d == pytest.approx(want[target])
        assert path[0] == 0 and path[-1] == target
        total = 0.0
        for u, v in zip(path, path[1:]):
            total += dict(adj[u])[v]
        assert total == pytest.approx(d)


class TestPruning:
    def test_targets_early_exit(self):
        adj, _g = random_graph()
        full = dijkstra(adj, 0)
        partial = dijkstra(adj, 0, targets={1})
        assert partial[1] == pytest.approx(full[1])
        assert len(partial) <= len(full)

    def test_max_dist_cap(self):
        adj, _g = random_graph()
        capped = dijkstra(adj, 0, max_dist=5.0)
        full = dijkstra(adj, 0)
        for node, d in capped.items():
            assert d <= 5.0 + 1e-12
            assert d == pytest.approx(full[node])
        for node, d in full.items():
            if d <= 5.0:
                assert node in capped


class TestEdgeCases:
    def test_isolated_source(self):
        assert dijkstra([[], []], 0) == {0: 0.0}

    def test_unreachable_target_raises(self):
        with pytest.raises(GeodesicError):
            shortest_path([[], []], 0, 1)

    def test_bad_source(self):
        with pytest.raises(GeodesicError):
            dijkstra([[]], 5)

    def test_parents_consistent(self):
        adj, _g = random_graph(seed=13)
        dist, parent = dijkstra_with_parents(adj, 0)
        for node, p in parent.items():
            w = dict(adj[p])[node]
            assert dist[node] == pytest.approx(dist[p] + w)

    def test_self_path(self):
        adj, _g = random_graph()
        d, path = shortest_path(adj, 4, 4)
        assert d == 0.0
        assert path == [4]
