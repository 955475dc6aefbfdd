"""Shared fixtures: small deterministic terrains and engines.

The meshes and engines come from :mod:`repro.testkit.generators` —
the single source of truth for named test terrain — so every module
(and the benchmark suite) queries byte-identical cached structures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import SurfaceKNNEngine
from repro.obs.context import ObsContext
from repro.terrain.mesh import TriangleMesh
from repro.testkit.generators import standard_engine, standard_mesh


@pytest.fixture
def obs_context():
    """A fresh activated :class:`ObsContext` (metrics only).

    Counter assertions read ``ctx.registry`` — isolated from every
    other test and from the process default registry, no global reset
    needed."""
    ctx = ObsContext("test")
    with ctx.activate():
        yield ctx


@pytest.fixture(scope="session")
def flat_mesh() -> TriangleMesh:
    """A flat 9x9 grid: geodesics equal Euclidean distances."""
    return standard_mesh("flat", 9)


@pytest.fixture(scope="session")
def rough_mesh() -> TriangleMesh:
    """A small rugged terrain (17x17)."""
    return standard_mesh("rough", 17)


@pytest.fixture(scope="session")
def bh_mesh() -> TriangleMesh:
    """Bearhead-like dataset at test scale."""
    return standard_mesh("BH", 17)


@pytest.fixture(scope="session")
def ep_mesh() -> TriangleMesh:
    """Eagle-Peak-like dataset at test scale."""
    return standard_mesh("EP", 17)


@pytest.fixture(scope="session")
def tilted_mesh() -> TriangleMesh:
    """A planar but tilted surface: geodesics still equal 3D
    Euclidean distances (the plane is developable)."""
    return standard_mesh("tilted", 9)


@pytest.fixture(scope="session")
def cube_mesh() -> TriangleMesh:
    """A closed unit cube (12 faces) with known exact geodesics."""
    vertices = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    faces = np.array(
        [
            [0, 2, 1], [0, 3, 2],  # bottom
            [4, 5, 6], [4, 6, 7],  # top
            [0, 1, 5], [0, 5, 4],  # front
            [1, 2, 6], [1, 6, 5],  # right
            [2, 3, 7], [2, 7, 6],  # back
            [3, 0, 4], [3, 4, 7],  # left
        ]
    )
    return TriangleMesh(vertices, faces)


@pytest.fixture(scope="session")
def small_engine() -> SurfaceKNNEngine:
    """An engine over the BH test terrain with ~20 objects."""
    return standard_engine("BH", 17, density=10.0, seed=3)


@pytest.fixture(scope="session")
def ep_engine() -> SurfaceKNNEngine:
    return standard_engine("EP", 17, density=10.0, seed=3)
