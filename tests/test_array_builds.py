"""The column-wise MSDN build and the batched QEM collapse pinned bit
for bit against the builds they replaced.

:class:`repro.testkit.reference.MSDNReference` is the object build
(one chunk object per chunk, a record-id store of encoded records)
and :func:`repro.testkit.reference.build_collapse_history_reference`
the per-pair collapse loop.  Arrays, pages and floats are compared as
bytes (:func:`~repro.testkit.reference.msdn_build_mismatches`,
:func:`~repro.testkit.reference.collapse_history_bits`), so a
last-bit difference or a flipped signed zero shows.
"""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry.primitives import BoundingBox
from repro.msdn.msdn import DEFAULT_RESOLUTIONS, MSDN
from repro.simplification.collapse import build_collapse_history
from repro.simplification.quadric import _solve_optima, vertex_quadrics
from repro.storage.pages import PageManager
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

    @given(terrain=_collapse_terrain)
    @_SETTINGS
    def test_history_matches_per_pair_loop(self, terrain):
        mesh = _mesh(*terrain)
        got = collapse_history_bits(build_collapse_history(mesh))
        assert got == collapse_history_bits(build_collapse_history_reference(mesh))

    def test_singular_solve_falls_back_per_pair(self):
        """A singular matrix in a batched solve: every other optimum
        is solved on its own, to the bits of the per-pair solve, and
        the singular one is left out."""
        rng = np.random.default_rng(4)
        solvers = rng.normal(size=(5, 4, 4))
        solvers[:, 3, :] = (0.0, 0.0, 0.0, 1.0)
        solvers[2, :3, :] = 0.0
        rhs = np.array([0.0, 0.0, 0.0, 1.0])
        cases = ((solvers, [0, 1, 3, 4]), (solvers[[0, 1, 3]], [0, 1, 2]))
        for stack, want_kept in cases:
            kept, optima = _solve_optima(stack)
            assert kept.tolist() == want_kept
            for row, opt in zip(kept, optima):
                want = np.linalg.solve(stack[row], rhs)[:3]
                assert opt.tobytes() == want.tobytes()
