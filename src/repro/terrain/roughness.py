"""Terrain roughness statistics.

The paper motivates multiresolution pruning with the observation that
the surface/Euclidean distance ratio varies from ~20-40 % extra on
gentle terrain to 200-300 % on rugged mountains, which makes a fixed
Euclidean-based search radius either wasteful or repeatedly too
small.  These helpers measure exactly that ratio (plus slope
statistics) so the bench harness can report which regime a synthetic
dataset falls into.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TerrainError
from repro.geodesic.csr import dijkstra_csr_with_parents, edge_network_csr
from repro.geometry.vectors import dist


def surface_to_euclid_ratio(mesh, num_pairs: int = 32, seed: int = 0) -> float:
    """Mean network-over-Euclidean distance ratio for random vertex pairs.

    Uses the mesh edge network distance ``dN`` (an upper bound of the
    surface distance ``dS`` and a good roughness proxy).
    """
    if num_pairs < 1:
        raise TerrainError("num_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    # One CSR build serves every sampled pair below.
    csr = edge_network_csr(mesh)
    ratios: list[float] = []
    attempts = 0
    while len(ratios) < num_pairs and attempts < num_pairs * 4:
        attempts += 1
        a, b = rng.integers(0, mesh.num_vertices, size=2)
        if a == b:
            continue
        euclid = float(dist(mesh.vertices[a], mesh.vertices[b]))
        if euclid == 0.0:
            continue
        settled, _parent = dijkstra_csr_with_parents(csr, int(a), targets={int(b)})
        network = settled.get(int(b))
        if network is None:
            continue
        ratios.append(network / euclid)
    if not ratios:
        raise TerrainError("could not sample any connected vertex pair")
    return float(np.mean(ratios))


def slope_statistics(mesh) -> tuple[float, float]:
    """(mean, max) face slope in degrees."""
    v = mesh.vertices
    f = mesh.faces
    normal = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    length = np.sqrt(np.sum(normal * normal, axis=1))
    length[length == 0.0] = 1.0
    cos_slope = np.abs(normal[:, 2]) / length
    slopes = np.degrees(np.arccos(np.clip(cos_slope, -1.0, 1.0)))
    return float(np.mean(slopes)), float(np.max(slopes))


@dataclass(frozen=True)
class RoughnessReport:
    """Roughness summary for a terrain mesh."""

    surface_euclid_ratio: float
    mean_slope_deg: float
    max_slope_deg: float
    relief: float

    @property
    def extra_distance_percent(self) -> float:
        """Extra surface distance over Euclidean, in percent (the
        paper quotes 20-40 % for gentle, 200-300 % for rugged)."""
        return (self.surface_euclid_ratio - 1.0) * 100.0


def roughness_report(mesh, num_pairs: int = 32, seed: int = 0) -> RoughnessReport:
    """Compute a :class:`RoughnessReport` for ``mesh``."""
    mean_slope, max_slope = slope_statistics(mesh)
    relief = float(mesh.vertices[:, 2].max() - mesh.vertices[:, 2].min())
    return RoughnessReport(
        surface_euclid_ratio=surface_to_euclid_ratio(mesh, num_pairs, seed),
        mean_slope_deg=mean_slope,
        max_slope_deg=max_slope,
        relief=relief,
    )
