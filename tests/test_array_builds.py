"""The array-built engine structures pinned bit for bit against the
builds they replaced.

:class:`repro.testkit.reference.MSDNReference` is the object build
(one chunk object per chunk, a record-id store sized by encoded
records),
:func:`repro.testkit.reference.build_collapse_history_reference` the
per-pair collapse loop, :func:`~repro.testkit.reference.dmtm_attach_reference`
the by-record DMTM attach, :func:`~repro.testkit.reference.mesh_adjacency_reference`
and :func:`~repro.testkit.reference.dem_faces_reference` the mesh
loops, :func:`~repro.testkit.reference.edge_network_reference` the
edge network by one append per edge and direction, and
:meth:`~repro.terrain.mesh.TriangleMesh.vertex_total_angle` the
scalar saddle angle.  Arrays and floats are compared as bytes, and
pages by length and class
(:func:`~repro.testkit.reference.msdn_build_mismatches`,
:func:`~repro.testkit.reference.collapse_history_bits`,
:func:`~repro.testkit.reference.dmtm_attach_mismatches`,
:func:`~repro.testkit.reference.mesh_adjacency_mismatches`), so a
last-bit difference or a flipped signed zero shows.
"""

from __future__ import annotations

import heapq
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geodesic.csr import edge_network_csr
from repro.geodesic.exact import _mesh_tables, _total_angles
from repro.geometry.primitives import BoundingBox
from repro.msdn.msdn import DEFAULT_RESOLUTIONS, MSDN
from repro.multires.dmtm import DMTM
from repro.shard.tiles import TileGrid, TileSpan
from repro.simplification import collapse
from repro.simplification.collapse import _accept, _select, build_collapse_history
from repro.simplification.quadric import (
    best_merge_position,
    face_quadric,
    merge_costs,
    vertex_quadrics,
)
from repro.storage.pages import PageManager
from repro.terrain.dem import DemGrid
from repro.terrain.mesh import TriangleMesh
from repro.terrain.synthetic import (
    bearhead_like,
    eagle_peak_like,
    fractal_dem,
    gaussian_hills_dem,
)
from repro.testkit.reference import (
    MSDNReference,
    build_collapse_history_reference,
    collapse_history_bits,
    csr_from_adjacency,
    dem_faces_reference,
    dmtm_attach_mismatches,
    edge_network_reference,
    mesh_adjacency_mismatches,
    msdn_build_mismatches,
    msdn_corridor_reference,
    msdn_lower_bound_reference,
    vertex_quadrics_reference,
)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _mesh(kind: str, size: int, seed: int) -> TriangleMesh:
    if kind == "BH":
        dem = bearhead_like(size=size, seed=seed)
    elif kind == "EP":
        dem = eagle_peak_like(size=size, seed=seed)
    elif kind == "hills":
        dem = gaussian_hills_dem(size=size, seed=seed)
    else:
        dem = fractal_dem(size=size, relief=0.0, seed=seed)
    return TriangleMesh.from_dem(dem)


_terrain = st.tuples(
    st.sampled_from(["BH", "EP", "flat"]),
    st.sampled_from([9, 13, 17]),
    st.integers(min_value=0, max_value=2**16),
)

# Resolutions on the 0.001 grid of the page records (so any draw is
# valid), or the default five.
_resolutions = st.one_of(
    st.just(DEFAULT_RESOLUTIONS),
    st.lists(
        st.integers(min_value=1, max_value=1000), min_size=1, max_size=5, unique=True
    ).map(lambda pm: tuple(v / 1000 for v in pm)),
)


def _box_bits(box: BoundingBox) -> bytes:
    return struct.pack(f"<{2 * box.dim}d", *box.lo, *box.hi)


def _pairs(mesh, count: int = 4):
    n = mesh.num_vertices
    picks = [0, n - 1, n // 3, (2 * n) // 3, n // 2 + 1][: count + 1]
    return [
        (mesh.vertices[a], mesh.vertices[b])
        for a, b in zip(picks, picks[1:])
        if a != b
    ]


class TestMSDNBuild:
    @given(
        terrain=_terrain,
        supersample=st.sampled_from([1, 8]),
        adaptive=st.sampled_from([0.0, 1.0]),
        resolutions=_resolutions,
        page_size=st.sampled_from([256, 2048, 8192]),
    )
    @_SETTINGS
    def test_matches_object_build(
        self, terrain, supersample, adaptive, resolutions, page_size
    ):
        mesh = _mesh(*terrain)
        params = dict(
            resolutions=resolutions,
            supersample=supersample,
            adaptive_planes=adaptive,
        )
        msdn = MSDN(mesh, **params)
        got_pages = PageManager(page_size=page_size)
        msdn.attach_storage(got_pages)
        ref = MSDNReference.build(mesh, **params)
        want_pages = PageManager(page_size=page_size)
        ref.attach_storage(want_pages)

        assert msdn_build_mismatches(msdn, got_pages, ref, want_pages) == []

    @given(terrain=_terrain, resolutions=_resolutions)
    @_SETTINGS
    def test_bounds_and_corridors_match_object_walk(self, terrain, resolutions):
        mesh = _mesh(*terrain)
        msdn = MSDN(mesh, resolutions=resolutions)
        msdn.attach_storage(PageManager(page_size=2048))
        for pa, pb in _pairs(mesh):
            roi = BoundingBox.of_points(np.array([pa[:2], pb[:2]])).expanded(
                msdn.spacing
            )
            for res in msdn.resolutions:
                plain = msdn.lower_bound(pa, pb, res)
                corridor = msdn.corridor_from_path(plain.path_keys, res)
                want_corridor = msdn_corridor_reference(msdn, plain.path_keys, res)
                assert [_box_bits(b) for b in corridor] == [
                    _box_bits(b) for b in want_corridor
                ]
                for kwargs in ({}, {"roi": roi}, {"corridor": corridor},
                               {"roi": roi, "corridor": corridor}):
                    got = msdn.lower_bound(pa, pb, res, **kwargs)
                    want = msdn_lower_bound_reference(msdn, pa, pb, res, **kwargs)
                    assert struct.pack("<d", got.value) == struct.pack(
                        "<d", want.value
                    )
                    assert got == want


_collapse_terrain = st.tuples(
    st.sampled_from(["BH", "EP", "hills", "flat"]),
    st.integers(min_value=3, max_value=17),
    st.integers(min_value=0, max_value=2**16),
)


class TestCollapse:
    @given(terrain=_collapse_terrain)
    @_SETTINGS
    def test_vertex_quadrics_match_face_loop(self, terrain):
        mesh = _mesh(*terrain)
        got = vertex_quadrics(mesh)
        assert got.tobytes() == vertex_quadrics_reference(mesh).tobytes()

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        pairs=st.integers(min_value=1, max_value=8),
        planes=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_merge_costs_match_per_pair(self, seed, pairs, planes):
        """Each row equals :func:`best_merge_position` bit for bit, with
        the per-pair loop's keeper rule.  Random plane sums give
        singular quadrics (one or two planes) and optima anywhere
        around the pair (three or more), so the near test decides
        both ways."""
        rng = np.random.default_rng(seed)
        pos_a = rng.normal(scale=10.0, size=(pairs, 3))
        pos_b = pos_a + rng.normal(size=(pairs, 3))
        q = np.zeros((pairs, 4, 4))
        for row in q:
            for _ in range(planes):
                row += face_quadric(*rng.normal(scale=10.0, size=(3, 3)))
        pos, err, keep_a = merge_costs(q, pos_a, pos_b)
        for i in range(pairs):
            want_pos, want_err = best_merge_position(q[i], pos_a[i], pos_b[i])
            assert pos[i].tobytes() == np.asarray(want_pos).tobytes()
            assert struct.pack("<d", err[i]) == struct.pack("<d", want_err)
            da = float(np.linalg.norm(want_pos - pos_a[i]))
            db = float(np.linalg.norm(want_pos - pos_b[i]))
            assert keep_a[i] == (da <= db)

    @given(terrain=_collapse_terrain)
    @_SETTINGS
    def test_history_matches_per_pair_loop(self, terrain):
        mesh = _mesh(*terrain)
        got = collapse_history_bits(build_collapse_history(mesh))
        assert got == collapse_history_bits(build_collapse_history_reference(mesh))

    @pytest.mark.parametrize(
        "name", ["BH25", "EP33", "span153", "span289", "span425x", "span425y", "span625"]
    )
    def test_named_terrains_match_per_pair_loop(self, name):
        mesh = _named_mesh(name)
        got = collapse_history_bits(build_collapse_history(mesh))
        assert got == collapse_history_bits(build_collapse_history_reference(mesh))

    def test_singular_solve_falls_back_per_pair(self, monkeypatch):
        """Singular matrices in a batched solve: with the determinant
        screen passing every matrix, the batches over a half-flat
        terrain stack singular solvers (flat quadrics) with regular
        ones, so the stacked solve raises and each matrix is solved on
        its own; the history still equals the per-pair loop, which
        skips every singular solve."""
        heights = bearhead_like(size=9, seed=2).heights.copy()
        heights[:, :5] = 0.0
        mesh = TriangleMesh.from_dem(DemGrid(heights, 10.0))
        solve = np.linalg.solve
        stacked_failures = []

        def counted_solve(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                if np.ndim(a) == 3:
                    stacked_failures.append(len(a))
                raise

        monkeypatch.setattr(np.linalg, "det", lambda a: np.ones(np.shape(a)[:-2]))
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        got = collapse_history_bits(build_collapse_history(mesh))
        want = collapse_history_bits(build_collapse_history_reference(mesh))
        assert any(size > 1 for size in stacked_failures)
        assert got == want


def _entry(err, tie, a, b):
    """A heap entry as the collapse loop pushes it; the unit tests
    never read its merge position or representative choice."""
    return (err, tie, a, b, None, True)


def _adjacency(edges) -> dict[int, dict[int, float]]:
    active: dict[int, dict[int, float]] = {}
    for u, w in edges:
        active.setdefault(u, {})[w] = 1.0
        active.setdefault(w, {})[u] = 1.0
    return active


#: The path 0-1-...-7, with 9 hanging off 6.
_PATH = _adjacency([(i, i + 1) for i in range(7)] + [(6, 9)])


class TestCollapseRounds:
    """A round's selection (:func:`_select`) and acceptance
    (:func:`_accept`) on hand-built heaps and adjacency, and the
    rounds of :func:`build_collapse_history` against the per-pair
    loop where they batch, reject, meet NaN prices and finish
    several components."""

    def test_stale_entries_are_dropped(self):
        heap = [
            _entry(0.1, 0, 42, 1),  # 42 merged away
            _entry(0.2, 1, 0, 2),  # both alive, not adjacent
            _entry(0.3, 2, 0, 1),
            _entry(0.4, 3, 4, 5),
        ]
        selected, set_aside = _select(heap, _PATH, single=False)
        assert selected == [_entry(0.3, 2, 0, 1), _entry(0.4, 3, 4, 5)]
        assert set_aside == [] and heap == []

    def test_sharing_entries_are_set_aside_and_return_with_a_rejection(self):
        heap = [
            _entry(0.1, 0, 0, 1),
            _entry(0.2, 1, 1, 2),  # shares 1 with the first
            _entry(0.3, 2, 4, 5),
            _entry(0.4, 3, 5, 6),  # shares 5 with the second
            _entry(0.5, 4, 7, 6),  # 6 neighbours 5: ends the round
        ]
        selected, set_aside = _select(heap, _PATH, single=False)
        assert selected == [_entry(0.1, 0, 0, 1), _entry(0.3, 2, 4, 5)]
        assert set_aside == [_entry(0.2, 1, 1, 2), _entry(0.4, 3, 5, 6)]
        assert heap == [_entry(0.5, 4, 7, 6)]
        # The merged node (0, 1) prices a pair below 0.3: the loop pops
        # that pair before (4, 5), so (4, 5) and the entry set aside
        # for it go back, with their counters.
        assert _accept(heap, selected, set_aside, [[0.25], [0.7]]) == 1
        assert _entry(0.3, 2, 4, 5) in heap
        assert _entry(0.4, 3, 5, 6) in heap
        assert heapq.heappop(heap) == _entry(0.2, 1, 1, 2)
        assert heapq.heappop(heap) == _entry(0.3, 2, 4, 5)

    def test_an_adjacent_entry_ends_the_round(self):
        heap = [
            _entry(0.1, 0, 0, 1),
            _entry(0.2, 1, 2, 3),  # 2 neighbours 1
            _entry(0.3, 2, 5, 6),
        ]
        selected, set_aside = _select(heap, _PATH, single=False)
        assert selected == [_entry(0.1, 0, 0, 1)] and set_aside == []
        assert heap[0] == _entry(0.2, 1, 2, 3) and len(heap) == 2

    def test_single_rounds_stop_at_the_first_entry(self):
        heap = [_entry(0.1, 0, 42, 1), _entry(0.2, 1, 0, 1), _entry(0.3, 2, 4, 5)]
        selected, set_aside = _select(heap, _PATH, single=True)
        assert selected == [_entry(0.2, 1, 0, 1)] and set_aside == []
        assert heap == [_entry(0.3, 2, 4, 5)]

    @pytest.mark.parametrize(
        "errors, prices",
        [
            ([0.1, 0.3, 0.3], [[0.3, 0.5], [0.3], [0.0]]),
            ([0.0, 0.0], [[-0.0], []]),
            ([-0.0, 0.0, -0.0], [[0.0], [-0.0], []]),
            ([0.1, 0.4, 0.2], [[], [0.9, 0.4], []]),  # no pairs: no bound
        ],
    )
    def test_a_price_equal_to_the_entry_accepts(self, errors, prices):
        selected = [_entry(e, tie, 2 * tie, 2 * tie + 1) for tie, e in enumerate(errors)]
        heap: list = []
        assert _accept(heap, selected, [], prices) == len(errors)
        assert heap == []

    @pytest.mark.parametrize(
        "errors, prices, accepted",
        [
            ([0.1, 0.3, 0.35], [[0.5, 0.2], [0.9], [0.1]], 1),
            ([0.1, 0.3], [[math.nextafter(0.3, 0.0)], []], 1),
            # The fourth entry would pass alone: a round commits a prefix.
            ([0.1, 0.2, 0.3, 0.1], [[0.5], [0.25], [], []], 2),
            ([0.0, 0.0], [[-5e-324], []], 1),
        ],
    )
    def test_a_smaller_price_rejects(self, errors, prices, accepted):
        selected = [_entry(e, tie, 2 * tie, 2 * tie + 1) for tie, e in enumerate(errors)]
        heap: list = []
        assert _accept(heap, selected, [], prices) == accepted
        assert sorted(heap) == sorted(selected[accepted:])

    def test_rounds_price_more_pairs_than_they_push(self, monkeypatch):
        """On BH 25 the rounds batch several collapses per
        ``merge_costs`` call and reject some entries, so they price
        pairs they never push (every edge, then each non-leaf node's
        records, are pushed); the history still equals the per-pair
        loop's."""
        mesh = _named_mesh("BH25")
        rows = []

        def counted(q, pos_a, pos_b):
            rows.append(len(q))
            return merge_costs(q, pos_a, pos_b)

        monkeypatch.setattr(collapse, "merge_costs", counted)
        history = build_collapse_history(mesh)
        pushed = len(mesh.edge_vertices) + sum(
            len(node.records) for node in history.nodes[history.num_leaves :]
        )
        assert 2 * len(rows) < history.num_steps
        assert sum(rows) > pushed
        assert collapse_history_bits(history) == collapse_history_bits(
            build_collapse_history_reference(mesh)
        )

    @pytest.mark.parametrize("kind, seed", [("EP", 0), ("EP", 1), ("EP", 2), ("BH", 4)])
    def test_nan_prices_replay_the_per_pair_loop(self, kind, seed):
        """Vertices scaled by 1e75 overflow the quadrics, and some pairs
        price NaN: the heap then pops by layout, and the history
        still equals the per-pair loop's."""
        mesh = _mesh(kind, 5, seed)
        with np.errstate(all="ignore"):
            mesh = TriangleMesh(mesh.vertices * 1e75, mesh.faces)
            got = build_collapse_history(mesh)
            want = build_collapse_history_reference(mesh)
        assert any(math.isnan(node.error) for node in want.nodes)
        assert collapse_history_bits(got) == collapse_history_bits(want)

    def test_two_components_give_two_roots(self):
        first, second = _mesh("BH", 7, 3), _mesh("EP", 5, 1)
        mesh = TriangleMesh(
            np.vstack((first.vertices, second.vertices + (1e4, 0.0, 0.0))),
            np.vstack((first.faces, second.faces + first.num_vertices)),
        )
        history = build_collapse_history(mesh)
        assert len(history.roots) == 2
        assert collapse_history_bits(history) == collapse_history_bits(
            build_collapse_history_reference(mesh)
        )

def _named_mesh(name: str) -> TriangleMesh:
    """BH 25, EP 33, or one of the five windows knnbench ``tiled_scale``
    builds (3x3 tiles of a 25x25 fractal), by vertex count."""
    if name == "BH25":
        return TriangleMesh.from_dem(bearhead_like(size=25))
    if name == "EP33":
        return TriangleMesh.from_dem(eagle_peak_like(size=33))
    spans = {
        "span153": TileSpan(1, 2, 0, 0),
        "span289": TileSpan(1, 2, 1, 2),
        "span425x": TileSpan(0, 1, 0, 2),
        "span425y": TileSpan(0, 2, 0, 1),
        "span625": TileSpan(0, 2, 0, 2),
    }
    grid = TileGrid(fractal_dem(25, 90.0, 500.0, 0.7), (3, 3))
    return TriangleMesh.from_dem(grid.window_dem(spans[name]))


class TestDMTMAttach:
    @given(terrain=_terrain, page_size=st.sampled_from([2048, 4096, 8192]))
    @_SETTINGS
    def test_matches_by_record_attach(self, terrain, page_size):
        dmtm = DMTM(_mesh(*terrain))
        pages = PageManager(page_size=page_size)
        dmtm.attach_storage(pages)
        assert dmtm_attach_mismatches(dmtm, pages, PageManager(page_size=page_size)) == []

    def test_tied_keys_keep_id_order(self):
        """A far outlier vertex squeezes every other face into one
        z-order cell: the tied faces keep face-id order, as ``sorted``
        keeps them."""
        mesh = _mesh("BH", 9, 1)
        vertices = mesh.vertices.copy()
        vertices[-1, :2] *= 1e9
        dmtm = DMTM(TriangleMesh(vertices, mesh.faces))
        pages = PageManager(page_size=2048)
        dmtm.attach_storage(pages)
        assert dmtm_attach_mismatches(dmtm, pages, PageManager(page_size=2048)) == []

    @pytest.mark.parametrize("name", ["BH25", "span625"])
    def test_named_terrains_match_by_record_attach(self, name):
        dmtm = DMTM(_named_mesh(name))
        pages = PageManager(page_size=4096)
        dmtm.attach_storage(pages)
        assert dmtm_attach_mismatches(dmtm, pages, PageManager(page_size=4096)) == []


class TestMeshAdjacency:
    @given(terrain=_collapse_terrain)
    @_SETTINGS
    def test_matches_loops(self, terrain):
        assert mesh_adjacency_mismatches(_mesh(*terrain)) == []

    @given(rows=st.integers(min_value=2, max_value=9), cols=st.integers(min_value=2, max_value=9))
    @_SETTINGS
    def test_dem_faces_match_cell_loop(self, rows, cols):
        dem = DemGrid(np.zeros((rows, cols)), 1.0)
        got = TriangleMesh.from_dem(dem).faces
        want = dem_faces_reference(dem)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @given(
        faces=st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=7)] * 3),
            min_size=1,
            max_size=16,
        )
    )
    @_SETTINGS
    def test_unvalidated_meshes_match_loops(self, faces):
        """Repeated, degenerate and non-manifold faces: every list keeps
        the loops' order, duplicates included."""
        vertices = np.random.default_rng(0).normal(size=(8, 3))
        mesh = TriangleMesh(vertices, np.array(faces), validate=False)
        assert mesh_adjacency_mismatches(mesh) == []


def _edge_network_mismatches(mesh) -> list[str]:
    """Which of indptr, indices, weights and positions differ between
    the array edge network and the one built by one ``append`` per
    edge and direction, list for list and by bytes."""
    got = edge_network_csr(mesh)
    want = csr_from_adjacency(edge_network_reference(mesh), positions=mesh.vertices)
    names = ("indptr", "indices", "weights")
    out = [
        name
        for name, g, w in zip(names, got.lists(), want.lists())
        if g != w or getattr(got, name).tobytes() != getattr(want, name).tobytes()
    ]
    if got.positions.tobytes() != want.positions.tobytes():
        out.append("positions")
    return out


class TestEdgeNetwork:
    @given(terrain=_collapse_terrain)
    @_SETTINGS
    def test_matches_append_loop(self, terrain):
        assert _edge_network_mismatches(_mesh(*terrain)) == []

    @given(
        faces=st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=7)] * 3),
            min_size=1,
            max_size=16,
        )
    )
    @_SETTINGS
    def test_unvalidated_meshes_match_append_loop(self, faces):
        """Repeated, degenerate and non-manifold faces, isolated
        vertices and self-loop edges included."""
        vertices = np.random.default_rng(0).normal(size=(8, 3))
        mesh = TriangleMesh(vertices, np.array(faces), validate=False)
        assert _edge_network_mismatches(mesh) == []

    @pytest.mark.parametrize("name", ["BH25", "EP33"])
    def test_named_terrains_match_append_loop(self, name):
        assert _edge_network_mismatches(_named_mesh(name)) == []


class TestSaddleFlags:
    @given(terrain=_collapse_terrain)
    @_SETTINGS
    def test_total_angles_match_scalar(self, terrain):
        mesh = _mesh(*terrain)
        totals = _total_angles(mesh)
        for v in range(mesh.num_vertices):
            assert struct.pack("<d", totals[v]) == struct.pack(
                "<d", mesh.vertex_total_angle(v)
            )
        boundary = mesh.boundary_vertices()
        assert _mesh_tables(mesh)[3] == [
            v in boundary or mesh.vertex_total_angle(v) > 2.0 * math.pi + 1e-7
            for v in range(mesh.num_vertices)
        ]
