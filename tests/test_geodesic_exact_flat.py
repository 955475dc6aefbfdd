"""The flat exact propagation pinned against the per-window reference.

:class:`~repro.geodesic.exact.ExactGeodesic` runs the window
propagation as one event loop over per-mesh tables;
:class:`~repro.testkit.reference.ExactGeodesicReference` runs the same
propagation with one object per window and one method per step.  Both
must agree bit for bit: distance bytes, the window count, the
``geodesic.exact.*`` counters, every value of a lazy ``distance_to``
sequence and the ``best`` list it leaves, and the point at which a
window budget runs out.

Meshes: BH and EP terrain, a flat and a tilted plane, the closed cube,
a step cliff and a needle fan.  Sources are drawn among all vertices,
boundary vertices and saddle vertices — the two kinds that spawn
pseudo-sources.  The counters matter: dropping the domination re-check
at pop time leaves every BH 13 distance unchanged but propagates a few
more windows.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GeodesicError
from repro.geodesic.exact import ExactGeodesic
from repro.obs.context import ObsContext
from repro.terrain.dem import DemGrid
from repro.terrain.mesh import TriangleMesh
from repro.testkit.generators import standard_mesh
from repro.testkit.reference import ExactGeodesicReference

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_COUNTERS = ("geodesic.exact.vertices_settled", "geodesic.exact.windows_propagated")

_KERNELS = (ExactGeodesicReference, ExactGeodesic)


def _cube() -> TriangleMesh:
    vertices = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    faces = np.array(
        [
            [0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7],
            [0, 1, 5], [0, 5, 4], [1, 2, 6], [1, 6, 5],
            [2, 3, 7], [2, 7, 6], [3, 0, 4], [3, 4, 7],
        ]
    )
    return TriangleMesh(vertices, faces)


def _cliff() -> TriangleMesh:
    """A sheer 500 m step through the middle of a 9x9 grid."""
    heights = np.zeros((9, 9))
    heights[:, 5:] = 500.0
    return TriangleMesh.from_dem(DemGrid(heights, cell_size=90.0))


def _needle() -> TriangleMesh:
    """A fan of eleven needle triangles around a hub."""
    angles = np.linspace(0.0, np.pi / 16, 12)
    rim = np.column_stack(
        [np.cos(angles) * 100.0, np.sin(angles) * 100.0, np.zeros(12)]
    )
    vertices = np.vstack([[[0.0, 0.0, 0.0]], rim])
    faces = np.array([[0, i, i + 1] for i in range(1, 12)])
    return TriangleMesh(vertices, faces)


_MESH_MAKERS = {
    "BH": lambda: standard_mesh("BH", 13),
    "EP": lambda: standard_mesh("EP", 13),
    "flat": lambda: standard_mesh("flat", 9),
    "tilted": lambda: standard_mesh("tilted", 9),
    "cube": _cube,
    "cliff": _cliff,
    "needle": _needle,
}
_MESHES: dict[str, TriangleMesh] = {}


def _mesh(name: str) -> TriangleMesh:
    mesh = _MESHES.get(name)
    if mesh is None:
        mesh = _MESHES[name] = _MESH_MAKERS[name]()
    return mesh


def _sources(mesh, kind: str) -> list[int]:
    """All vertices, the boundary vertices, or the interior saddles
    (total angle above 2*pi); may be empty."""
    if kind == "any":
        return list(range(mesh.num_vertices))
    boundary = mesh.boundary_vertices()
    if kind == "boundary":
        return sorted(boundary)
    return [
        v
        for v in range(mesh.num_vertices)
        if v not in boundary and mesh.vertex_total_angle(v) > 2.0 * math.pi + 1e-7
    ]


@st.composite
def mesh_and_source(draw):
    name = draw(st.sampled_from(sorted(_MESH_MAKERS)))
    mesh = _mesh(name)
    kind = draw(st.sampled_from(("any", "boundary", "saddle")))
    sources = _sources(mesh, kind) or _sources(mesh, "any")
    return name, draw(st.sampled_from(sources))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _observe(kernel, mesh, source, body, **kwargs):
    """``body(geo)`` on a fresh ``kernel`` instance under a fresh
    registry: its result, the window count, the ``best`` bytes and the
    exact counters."""
    ctx = ObsContext("exact")
    with ctx.activate():
        geo = kernel(mesh, source, **kwargs)
        result = body(geo)
    counters = tuple(ctx.registry.counter(name).value for name in _COUNTERS)
    return result, geo.windows_created, _bits(geo.best), counters


def _full_sweep(geo):
    return geo.distances().tobytes()


class TestFullSweep:
    @_SETTINGS
    @given(mesh_and_source())
    def test_matches_reference(self, case):
        name, source = case
        mesh = _mesh(name)
        ref, flat = (_observe(k, mesh, source, _full_sweep) for k in _KERNELS)
        assert flat == ref

    @pytest.mark.parametrize("name", sorted(_MESH_MAKERS))
    def test_boundary_and_saddle_sources(self, name):
        """The first boundary and saddle vertex and vertex 0 of every
        mesh, so the comparison never rests on the draw alone."""
        mesh = _mesh(name)
        sources = {0}
        for kind in ("boundary", "saddle"):
            sources.update(_sources(mesh, kind)[:1])
        for source in sorted(sources):
            ref, flat = (_observe(k, mesh, source, _full_sweep) for k in _KERNELS)
            assert flat == ref, (name, source)


class TestLazyQueries:
    @_SETTINGS
    @given(mesh_and_source(), st.data())
    def test_distance_sequence_matches_reference(self, case, data):
        """One instance answers a random ``distance_to`` sequence, each
        call resuming the propagation where the last one stopped."""
        name, source = case
        mesh = _mesh(name)
        targets = data.draw(
            st.lists(
                st.integers(0, mesh.num_vertices - 1), min_size=1, max_size=6
            )
        )

        def ask(geo):
            return _bits([geo.distance_to(t) for t in targets])

        ref, flat = (_observe(k, mesh, source, ask) for k in _KERNELS)
        assert flat == ref


def _budget_outcome(kernel, mesh, source, budget):
    """Where a ``max_windows`` budget stops ``kernel``: the seeding
    constructor, or the sweep with its window count, ``best`` bytes
    and counters; or the completed sweep."""
    ctx = ObsContext("exact")
    with ctx.activate():
        try:
            geo = kernel(mesh, source, max_windows=budget)
        except GeodesicError as exc:
            return "constructor", str(exc)
        try:
            geo.distances()
            stage, message = "done", None
        except GeodesicError as exc:
            stage, message = "run", str(exc)
    counters = tuple(ctx.registry.counter(name).value for name in _COUNTERS)
    return stage, message, geo.windows_created, _bits(geo.best), counters


class TestWindowBudget:
    @_SETTINGS
    @given(mesh_and_source(), st.data())
    def test_runs_out_at_the_same_window(self, case, data):
        name, source = case
        mesh = _mesh(name)
        total = ExactGeodesic(mesh, source).windows_created
        geo = ExactGeodesic(mesh, source)
        geo.distances()
        budget = data.draw(st.integers(0, geo.windows_created))
        ref, flat = (_budget_outcome(k, mesh, source, budget) for k in _KERNELS)
        assert flat == ref
        if budget < total:
            assert flat[0] == "constructor"
        elif budget < geo.windows_created:
            assert flat[0] == "run" and flat[2] == budget
        else:
            assert flat[0] == "done"


def test_tables_are_built_once_per_mesh():
    mesh = standard_mesh("BH", 9)
    first = ExactGeodesic(mesh, 0)._tables
    assert ExactGeodesic(mesh, 5)._tables is first


def test_tables_hold_one_object_per_edge_length():
    """Every entry naming one edge's length (row, far-edge and spawn
    columns, vertex edges) holds the same float object, so the tables
    store each length once rather than once per entry."""
    mesh = standard_mesh("BH", 9)
    rows, spawn, vadj, _spreader = ExactGeodesic(mesh, 0)._tables
    u = mesh.nearest_vertex(mesh.xy_bounds().center)
    v = mesh.vertex_neighbors[u][0]
    eid = mesh.edge_ids[(min(u, v), max(u, v))]
    named = [ln for w, ln in vadj[u] if w == v]
    named += [ln for w, ln in vadj[v] if w == u]
    for f, edges in enumerate(mesh.face_edges.tolist()):
        for s in range(3):
            for col, e in ((3, edges[s]), (9, edges[(s + 1) % 3]),
                           (13, edges[(s + 2) % 3])):
                if e == eid:
                    named.append(rows[f][s][col])
    named += [w[4] for out in spawn for w in out if {w[2], w[3]} == {u, v}]
    assert len(named) == 2 + 2 * 3 + 2  # interior edge: two faces
    assert named[0] == float(mesh.edge_lengths[eid])
    assert all(ln is named[0] for ln in named)


def test_zero_length_boundary_edge_matches_reference():
    """An unvalidated mesh may carry coincident vertices.  The tables
    unfold every edge up front, a zero-length one included; no window
    ever reads that entry, so the answer is the reference's."""
    vertices = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    )
    mesh = TriangleMesh(vertices, np.array([[0, 1, 3], [1, 2, 3]]), validate=False)
    for source in range(mesh.num_vertices):
        ref, flat = (_observe(k, mesh, source, _full_sweep) for k in _KERNELS)
        assert flat == ref
