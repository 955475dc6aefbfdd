"""Property tests for the frontier-batched numpy kernel.

The bucket kernel (:func:`repro.geodesic.frontier.multi_source_frontier`)
is a pure performance change with the same contract as the heap
kernels: every search shape — one source at offset 0.0 included —
must return exactly (``==``, not approx) what the dict reference
kernels return — distances, parents, tie-broken winners, early-exit
settled sets — across 200 random-graph seeds.  The vectorised pathnet
builder must likewise reproduce the reference per-face builder's
graph node for node, edge for edge, bit for bit.

The dispatchers run the heap kernels below ``MIN_FRONTIER_NODES``
(and on zero-weight graphs), so most tests here pin the cutoff to 0
to force the bucket path onto small graphs where brute-force
comparison is cheap; :class:`TestOneSourceDifferential` keeps the
real cutoff and graphs above it.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.errors import GeodesicError
from repro.geodesic import frontier as frontier_mod
from repro.geodesic.csr import (
    astar_csr,
    dijkstra_csr_with_parents,
    graph_dijkstra_with_parents,
    multi_source_heap,
)
from repro.geodesic.frontier import (
    MIN_FRONTIER_NODES,
    build_pathnet_arrays,
    multi_source_frontier,
)
from repro.obs.context import ObsContext
from repro.geodesic.pathnet import build_pathnet
from repro.testkit.generators import standard_mesh
from repro.testkit.reference import (
    build_pathnet_reference,
    csr_adjacency,
    csr_from_adjacency,
    dijkstra_reference,
    dijkstra_with_parents_reference,
    induced_adjacency,
)


@pytest.fixture(autouse=True)
def force_bucket_path(monkeypatch):
    """Remove the small-graph rule so the dispatchers run the bucket
    kernel on every test graph (the kernels are bit-identical either
    side of the cutoff; the cutoff is purely a speed knob)."""
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
    """60 seeds: full sweeps of the one-source bucket path vs the dict
    reference."""

    @pytest.mark.parametrize("seed", range(60))
    def test_full_sweep_identical(self, seed):
        rng = random.Random(seed)
        adj, _pos = random_geometric_graph(rng)
        csr = csr_from_adjacency(adj)
        src = rng.randrange(len(adj))
        dist, _parent = graph_dijkstra_with_parents(csr, src)
        assert dist == dijkstra_reference(adj, src)

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
        assert graph_dijkstra_with_parents(
            csr, src, targets=set(targets), max_dist=max_dist
        ) == dijkstra_with_parents_reference(
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
        d1, p1 = graph_dijkstra_with_parents(csr, src)
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
    pop; the bucket kernel must return the same on a graph above the
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
            assert graph_dijkstra_with_parents(
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


def connected_tie_heavy_graph(rng, n, weights=(1, 1, 2, 3)):
    """A connected graph over ``n`` nodes (a random spanning tree plus
    ``n`` chords) whose integer weights tie exactly and often."""
    adj = [[] for _ in range(n)]

    def link(u, v):
        w = float(rng.choice(weights))
        adj[u].append((v, w))
        adj[v].append((u, w))

    for u in range(1, n):
        link(u, rng.randrange(u))
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            link(u, v)
    return adj


def frontier_counters(ctx):
    return {
        name: value["value"]
        for name, value in ctx.registry.collect().items()
        if name.startswith(("geodesic.frontier.", "geodesic.dijkstra."))
    }


class TestOneSourceDifferential:
    """The one-source bucket path at the real cutoff: tie-heavy graphs
    of at least ``MIN_FRONTIER_NODES`` nodes, region masks, targets and
    ``max_dist``, against the heap twin and the dict reference."""

    @pytest.fixture(autouse=True)
    def force_bucket_path(self):
        """Keep the real cutoff; every search here clears it."""

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_heap_twin_and_reference(self, seed):
        rng = random.Random(6000 + seed)
        n = rng.randint(MIN_FRONTIER_NODES + 88, 900)
        adj = connected_tie_heavy_graph(rng, n)
        csr = csr_from_adjacency(adj)
        src = rng.randrange(n)
        if rng.random() < 0.75:
            region = np.array([rng.random() < 0.93 for _ in range(n)])
            region[src] = True
        else:
            region = np.ones(n, dtype=bool)
        inside = np.flatnonzero(region).tolist()
        assert len(inside) >= MIN_FRONTIER_NODES
        targets = rng.choice(
            [None, set(), set(rng.sample(inside, rng.randint(1, 5)))]
        )
        max_dist = rng.choice([None, float(rng.randint(2, 12))])
        search_region = None if region.all() else region
        ctx = ObsContext("one-source")
        with ctx.activate():
            dist, parent = graph_dijkstra_with_parents(
                csr, src, targets, max_dist, search_region
            )
        assert ctx.registry.counter("geodesic.frontier.buckets").value > 0
        heap_dist, heap_parent = dijkstra_csr_with_parents(
            csr, src, targets, max_dist, search_region
        )
        assert list(dist.items()) == list(heap_dist.items())
        assert parent == heap_parent
        sub, ids = induced_adjacency(adj, region)
        back = list(ids)
        ref_dist, ref_parent = dijkstra_with_parents_reference(
            sub,
            ids[src],
            None if targets is None else {ids[t] for t in targets},
            max_dist,
        )
        assert [(back[u], d) for u, d in ref_dist.items()] == list(dist.items())
        assert {back[u]: back[p] for u, p in ref_parent.items()} == parent

    @pytest.mark.parametrize("seed", range(6))
    def test_region_wmin_matches_induced_subgraph(self, seed):
        """A region that leaves out every lightest edge: its buckets
        are as wide as the subgraph's own smallest weight allows, so
        labels and every kernel counter equal those of the subgraph
        compiled on its own."""
        rng = random.Random(7000 + seed)
        n = rng.randint(MIN_FRONTIER_NODES + 120, 900)
        adj = connected_tie_heavy_graph(rng, n, weights=(2, 2, 3, 4))
        outside = set(rng.sample(range(n), n // 10))
        for u in sorted(outside):
            # Light edges, each with an end outside the region.
            v = rng.randrange(n)
            if v != u:
                adj[u].append((v, 1.0))
                adj[v].append((u, 1.0))
        region = np.array([u not in outside for u in range(n)])
        csr = csr_from_adjacency(adj)
        sub, ids = induced_adjacency(adj, region)
        sub_csr = csr_from_adjacency(sub)
        assert frontier_mod.min_weight(csr) == 1.0
        assert frontier_mod.min_weight(csr, region) == 2.0
        assert sub_csr.num_nodes >= MIN_FRONTIER_NODES
        inside = list(ids)
        src = rng.choice(inside)
        targets = rng.choice([None, set(rng.sample(inside, 3))])
        max_dist = rng.choice([None, float(rng.randint(6, 16))])
        in_place, alone = ObsContext("in-place"), ObsContext("alone")
        with in_place.activate():
            got = graph_dijkstra_with_parents(csr, src, targets, max_dist, region)
        with alone.activate():
            want = graph_dijkstra_with_parents(
                sub_csr,
                ids[src],
                None if targets is None else {ids[t] for t in targets},
                max_dist,
            )
        back = list(ids)
        assert list(got[0].items()) == [(back[u], d) for u, d in want[0].items()]
        assert got[1] == {back[u]: back[p] for u, p in want[1].items()}
        counters = frontier_counters(in_place)
        assert counters["geodesic.frontier.buckets"] > 0
        assert counters == frontier_counters(alone)

    def test_source_cut_off_by_the_region_runs_no_batch(self):
        """A source whose every edge leaves the region settles alone;
        its bucket runs no batched relaxation, as on the subgraph
        compiled on its own, where it has no edge at all."""
        rng = random.Random(7100)
        n = MIN_FRONTIER_NODES + 100
        adj = connected_tie_heavy_graph(rng, n)
        src = 0
        region = np.ones(n, dtype=bool)
        region[[v for v, _w in adj[src]]] = False
        sub, ids = induced_adjacency(adj, region)
        in_place, alone = ObsContext("in-place"), ObsContext("alone")
        with in_place.activate():
            got = graph_dijkstra_with_parents(
                csr_from_adjacency(adj), src, region=region
            )
        with alone.activate():
            want = graph_dijkstra_with_parents(csr_from_adjacency(sub), ids[src])
        assert got == want == ({src: 0.0}, {})
        counters = frontier_counters(in_place)
        assert counters["geodesic.frontier.batch_relaxations"] == 0
        assert counters == frontier_counters(alone)


    @pytest.mark.parametrize("n", [MIN_FRONTIER_NODES // 2, 600])
    def test_source_outside_the_region_settles_nothing(self, n):
        """A source the region leaves out is no node of the subgraph
        the region induces: the heap kernel, the bucket kernel and the
        dispatcher, on either side of its size rule, label nothing."""
        adj = [[] for _ in range(n)]
        for u in range(n - 1):
            adj[u].append((u + 1, 1.0))
            adj[u + 1].append((u, 1.0))
        csr = csr_from_adjacency(adj)
        region = np.ones(n, dtype=bool)
        region[0] = False
        assert (n - 1 >= MIN_FRONTIER_NODES) == (n == 600)
        assert graph_dijkstra_with_parents(csr, 0, region=region) == ({}, {})
        assert dijkstra_csr_with_parents(csr, 0, region=region) == ({}, {})
        found = multi_source_frontier(csr, [(0, 0.0)], region=region)
        assert (found.value, found.parent) == ({}, {})


class TestAStar:
    """40 seeds: the heap A* that ``pathnet_distance`` runs (there is
    no bucketed A*) vs the dict reference on the same random graphs
    as the bucket kernel above."""

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
        ctx = ObsContext("small")
        with ctx.activate():
            got = graph_dijkstra_with_parents(csr, 0)
        assert got == dijkstra_with_parents_reference(adj, 0)
        assert ctx.registry.counter("geodesic.frontier.buckets").value == 0

    def test_zero_weight_graph_delegates(self):
        """No positive bucket window exists with a zero-weight edge;
        the dispatcher must fall back, not loop or drift."""
        adj = [[(1, 0.0), (2, 1.0)], [(0, 0.0)], [(0, 1.0)]]
        csr = csr_from_adjacency(adj)
        ctx = ObsContext("zero-weight")
        with ctx.activate():
            got = graph_dijkstra_with_parents(csr, 0)
        assert got == dijkstra_with_parents_reference(adj, 0)
        assert ctx.registry.counter("geodesic.frontier.buckets").value == 0

    def test_source_out_of_range(self):
        """The bucket path rejects a bad source like the heap kernel."""
        csr = csr_from_adjacency([[(1, 1.0)], [(0, 1.0)]])
        for source in (-1, 2):
            with pytest.raises(GeodesicError, match="out of range"):
                graph_dijkstra_with_parents(csr, source)
            with pytest.raises(GeodesicError, match="out of range"):
                multi_source_frontier(csr, [(source, 0.0)])


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
