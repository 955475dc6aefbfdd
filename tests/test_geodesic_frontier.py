"""Property tests for the frontier-batched numpy kernels.

The bucketed kernels (:mod:`repro.geodesic.frontier`) are a pure
performance change with the same contract as the CSR kernels: every
search shape must return exactly (``==``, not approx) what the dict
reference kernels return — distances, parents, tie-broken winners,
early-exit settled sets — across 200 random-graph seeds.  The
vectorised pathnet builder must likewise reproduce the reference
per-face builder's graph node for node, edge for edge, bit for bit.

The dispatchable entry points delegate to the heap kernels below
``MIN_FRONTIER_NODES`` (and on zero-weight graphs), so these tests
pin the cutoff to 0 to force the bucket path onto small graphs where
brute-force comparison is cheap.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.geodesic import frontier as frontier_mod
from repro.geodesic.csr import (
    astar_csr,
    dijkstra_csr,
    dijkstra_csr_with_parents,
    multi_source_heap,
)
from repro.geodesic.frontier import (
    MIN_FRONTIER_NODES,
    build_pathnet_arrays,
    dijkstra_frontier,
    dijkstra_frontier_with_parents,
    multi_source_frontier,
)
from repro.geodesic.pathnet import build_pathnet
from repro.testkit.generators import standard_mesh
from repro.testkit.reference import (
    build_pathnet_reference,
    csr_adjacency,
    csr_from_adjacency,
    dijkstra_reference,
    dijkstra_with_parents_reference,
)


@pytest.fixture(autouse=True)
def force_bucket_path(monkeypatch):
    """Remove the small-graph delegation so the bucket kernels run on
    every test graph (they are bit-identical either side of the
    cutoff; the cutoff is purely a speed knob)."""
    monkeypatch.setattr(frontier_mod, "MIN_FRONTIER_NODES", 0)


def random_geometric_graph(rng, n=None):
    """Connected-ish random graph with positions and admissible
    weights (same construction as the CSR differential tests)."""
    if n is None:
        n = rng.randint(2, 48)
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


def tie_heavy_graph(rng, n=None):
    """Graph whose weights come from a tiny integer set, so many
    shortest paths tie exactly and the tie-break rules actually
    decide the output."""
    if n is None:
        n = rng.randint(3, 30)
    adj = [[] for _ in range(n)]
    for u in range(n):
        for _ in range(rng.randint(1, 3)):
            v = rng.randrange(n)
            if v == u:
                continue
            w = float(rng.choice((1, 1, 2, 4)))
            adj[u].append((v, w))
            adj[v].append((u, w))
    return adj


class TestSingleSource:
    """60 seeds: full sweeps vs the dict reference."""

    @pytest.mark.parametrize("seed", range(60))
    def test_full_sweep_identical(self, seed):
        rng = random.Random(seed)
        adj, _pos = random_geometric_graph(rng)
        csr = csr_from_adjacency(adj)
        src = rng.randrange(len(adj))
        assert dijkstra_frontier(csr, src) == dijkstra_reference(adj, src)

    @pytest.mark.parametrize("seed", range(30))
    def test_targets_and_max_dist_identical(self, seed):
        """Early exit must settle exactly the reference's settled set,
        not merely cover the targets."""
        rng = random.Random(1000 + seed)
        adj, _pos = random_geometric_graph(rng)
        csr = csr_from_adjacency(adj)
        n = len(adj)
        src = rng.randrange(n)
        targets = {rng.randrange(n) for _ in range(rng.randint(1, 3))}
        max_dist = rng.choice([None, rng.uniform(1.0, 12.0)])
        assert dijkstra_frontier(
            csr, src, targets=set(targets), max_dist=max_dist
        ) == dijkstra_reference(
            adj, src, targets=set(targets), max_dist=max_dist
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_parent_trees_identical(self, seed):
        """Tie-broken shortest-path trees feed the refined-region
        corridors; they must match node for node."""
        rng = random.Random(2000 + seed)
        adj = tie_heavy_graph(rng)
        csr = csr_from_adjacency(adj)
        src = rng.randrange(len(adj))
        d1, p1 = dijkstra_frontier_with_parents(csr, src)
        d2, p2 = dijkstra_with_parents_reference(adj, src)
        assert d1 == d2
        assert p1 == p2


class TestMultiSource:
    """40 seeds: offset-composed labels vs the heap twin."""

    @pytest.mark.parametrize("seed", range(40))
    def test_labels_identical(self, seed):
        rng = random.Random(3000 + seed)
        adj, _pos = random_geometric_graph(rng)
        csr = csr_from_adjacency(adj)
        n = len(adj)
        sources = [
            (rng.randrange(n), rng.uniform(0.0, 3.0))
            for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.3:
            # Duplicate a source node under a different offset: the
            # lower (value, rank) label must win in both kernels.
            sources.append((sources[0][0], rng.uniform(0.0, 3.0)))
        targets = (
            {rng.randrange(n) for _ in range(rng.randint(1, 3))}
            if rng.random() < 0.5
            else None
        )
        max_dist = rng.choice([None, rng.uniform(1.0, 12.0)])
        got = multi_source_frontier(
            csr, sources,
            targets=set(targets) if targets else None, max_dist=max_dist,
        )
        want = multi_source_heap(
            csr, sources,
            targets=set(targets) if targets else None, max_dist=max_dist,
        )
        assert got.value == want.value
        assert got.raw == want.raw
        assert got.origin == want.origin
        assert got.parent == want.parent


class TestEmptyTargets:
    """An empty ``targets`` set stops the heap kernels at their first
    pop; the bucket kernels must return the same on a graph above the
    real cutoff (they used to raise on ``max()`` of no settled
    target)."""

    @pytest.fixture
    def path_csr(self):
        n = MIN_FRONTIER_NODES + 10
        adj = [[] for _ in range(n)]
        for u in range(n - 1):
            w = 1.0 + 0.25 * (u % 3)
            adj[u].append((u + 1, w))
            adj[u + 1].append((u, w))
        return csr_from_adjacency(adj)

    def test_single_source(self, path_csr):
        assert path_csr.num_nodes >= MIN_FRONTIER_NODES
        for source in (0, 7, path_csr.num_nodes - 1):
            assert dijkstra_frontier(path_csr, source, targets=set()) == dijkstra_csr(
                path_csr, source, targets=set()
            )
            assert dijkstra_frontier_with_parents(
                path_csr, source, targets=set()
            ) == dijkstra_csr_with_parents(path_csr, source, targets=set())

    def test_multi_source(self, path_csr):
        for sources in ([(0, 0.0)], [(9, 2.0), (3, 0.5), (3, 0.25), (400, 0.25)]):
            got = multi_source_frontier(path_csr, sources, targets=set())
            want = multi_source_heap(path_csr, sources, targets=set())
            assert (got.value, got.raw, got.origin, got.parent) == (
                want.value, want.raw, want.origin, want.parent
            )
            assert len(got.value) == 1


class TestAStar:
    """40 seeds: the heap A* that ``pathnet_distance`` runs (there is
    no bucketed A*) vs the dict reference on the same random graphs
    as the bucket kernels above."""

    @pytest.mark.parametrize("seed", range(40))
    def test_value_identical(self, seed):
        rng = random.Random(4000 + seed)
        adj, pos = random_geometric_graph(rng)
        csr = csr_from_adjacency(adj, positions=pos)
        n = len(adj)
        src = rng.randrange(n)
        tgt = rng.randrange(n)
        want = dijkstra_reference(adj, src, targets={tgt}).get(tgt)
        assert astar_csr(csr, src, tgt) == want


class TestDispatchDelegation:
    def test_small_graph_delegates_without_patch(self, monkeypatch):
        """Below the cutoff the dispatchers hand off to the heap
        kernels — same answers, no frontier counters."""
        monkeypatch.setattr(
            frontier_mod, "MIN_FRONTIER_NODES", MIN_FRONTIER_NODES
        )
        adj, _pos = random_geometric_graph(random.Random(5))
        csr = csr_from_adjacency(adj)
        assert csr.num_nodes < MIN_FRONTIER_NODES
        assert dijkstra_frontier(csr, 0) == dijkstra_reference(adj, 0)

    def test_zero_weight_graph_delegates(self):
        """No positive bucket window exists with a zero-weight edge;
        the dispatcher must fall back, not loop or drift."""
        adj = [[(1, 0.0), (2, 1.0)], [(0, 0.0)], [(0, 1.0)]]
        csr = csr_from_adjacency(adj)
        assert dijkstra_frontier(csr, 0) == dijkstra_reference(adj, 0)


class TestBuilderEquivalence:
    """The vectorised pathnet builder vs the reference builder: same
    node-id order, same keys, bit-identical positions and weights,
    same adjacency order."""

    def assert_same_graph(self, mesh, spe, faces=None, forbidden=None):
        ref = build_pathnet_reference(
            mesh, steiner_per_edge=spe, faces=faces, forbidden_faces=forbidden
        )
        arr = build_pathnet(
            mesh, steiner_per_edge=spe, faces=faces, forbidden_faces=forbidden
        )
        assert len(arr) == len(ref)
        for nid in range(len(ref)):
            assert arr.key_of(nid) == ref.key_of(nid)
            pb = ref.position_of(nid)
            assert pb is not None
            assert tuple(arr.csr.positions[nid]) == tuple(pb)
        assert csr_adjacency(arr.csr) == ref.adjacency

    @pytest.mark.parametrize("spe", [0, 1, 2])
    def test_full_mesh(self, spe):
        mesh = standard_mesh("BH", 9)
        self.assert_same_graph(mesh, spe)

    def test_face_subset_and_forbidden(self):
        mesh = standard_mesh("BH", 9)
        faces = np.arange(0, mesh.num_faces, 2, dtype=np.int64)
        forbidden = {int(faces[1]), int(faces[3])}
        self.assert_same_graph(mesh, 1, faces=faces, forbidden=forbidden)

    def test_raw_arrays_shape(self):
        mesh = standard_mesh("BH", 7)
        built = build_pathnet_arrays(mesh, 1)
        assert built is not None
        codes, positions, csr = built
        assert codes.shape[0] == positions.shape[0] == csr.num_nodes
        # Every code decodes to a vertex or an on-mesh Steiner point.
        assert (codes >= 0).all()
        assert (codes < mesh.num_vertices + mesh.num_edges).all()


class TestSearchViaDispatchers:
    """The engine-facing pathnet search over the array-built pathnet
    matches a dict Dijkstra over the reference-built pathnet."""

    @pytest.mark.parametrize("spe", [1, 2])
    def test_pathnet_distance_identical(self, spe):
        from repro.geodesic.pathnet import pathnet_distance, vertex_key

        mesh = standard_mesh("BH", 9)
        ref = build_pathnet_reference(mesh, steiner_per_edge=spe)
        pairs = [(0, mesh.num_vertices - 1), (3, mesh.num_vertices // 2)]
        for s, t in pairs:
            sid = ref.node_id(vertex_key(s))
            tid = ref.node_id(vertex_key(t))
            want = dijkstra_reference(ref.adjacency, sid, targets={tid})[tid]
            assert pathnet_distance(mesh, s, t, steiner_per_edge=spe) == want
