"""ALT-style landmark lower bounds for surface distances.

Road-network k-NN engines precompute distances from a small set of
*landmark* vertices and serve O(1) triangle-inequality lower bounds
``max_l |d(l,u) - d(l,v)|`` (the ALT family: A*, landmarks, triangle
inequality).  This module transplants that idea to the surface
setting with one crucial twist: every graph distance this repo
computes (edge network ``dN``, pathnet distances) **over-estimates**
the exact surface distance ``dS``, so ``|dN(l,u) - dN(l,v)|`` is NOT
a valid lower bound of ``dS(u,v)``.  The table must hold distances in
the *same metric* the bound is quoted in.

A :class:`LandmarkIndex` is one immutable table, built eagerly:

* landmarks are picked by farthest-point sampling over the edge
  network (each new landmark maximizes its network distance to the
  already-chosen set — one
  :func:`~repro.geodesic.csr.multi_source_dijkstra_csr` search per
  round).  Network distances only *choose* landmarks; they never
  bound ``dS``;
* ``surface`` holds the exact per-landmark distance rows ``dS(l, .)``,
  one :class:`~repro.geodesic.exact.ExactGeodesic` propagation per
  landmark.  The triangle inequality of the surface metric then gives
  the admissible pair bound ``max_l |dS(l,u) - dS(l,v)| <= dS(u,v)``
  that the ranking loop and the ``landmark_admissible`` testkit oracle
  rely on, and the concatenation bound ``dS(u,v) <= dS(l,u) + dS(l,v)``
  used to seed pruning thresholds.

A build counts once under ``landmark.build`` and profiles under the
``landmark-build`` phase.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from repro.errors import GeodesicError
from repro.geodesic.csr import edge_network_csr, multi_source_dijkstra_csr
from repro.geodesic.exact import ExactGeodesic
from repro.obs.context import active_registry, current


def mesh_fingerprint(mesh) -> str:
    """Stable identity of a mesh's geometry (SHA-1 over vertex and
    face bytes) — the graph-identity component of cache keys."""
    digest = hashlib.sha1()
    digest.update(np.ascontiguousarray(mesh.vertices, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(mesh.faces, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _select_landmarks(mesh, count: int, seed: int) -> list[int]:
    """Farthest-point sampling over the edge network.

    The first landmark is drawn from the seeded RNG; each next one
    maximizes its network distance to the chosen set, computed by ONE
    multi-source search per round (the set's vertices are the
    sources).  Ties break toward the lowest vertex id (``argmax``
    returns the first maximum), so selection is deterministic.
    """
    csr = edge_network_csr(mesh)
    n = mesh.num_vertices
    rng = random.Random(seed)
    chosen = [rng.randrange(n)]
    while len(chosen) < count:
        sweep = multi_source_dijkstra_csr(csr, [(v, 0.0) for v in chosen])
        to_set = np.full(n, np.inf)
        for node, value in sweep.value.items():
            to_set[node] = value
        # Unreachable vertices would argmax at inf but make useless
        # landmarks (their exact rows are inf too) — mask them out.
        to_set[~np.isfinite(to_set)] = -1.0
        chosen.append(int(np.argmax(to_set)))
    return chosen


class LandmarkIndex:
    """Serves O(1) admissible lower bounds on surface distances.

    Build through :meth:`build` rather than the constructor.
    ``surface[i, v]`` is the exact surface distance from landmark
    ``landmarks[i]`` to vertex ``v``, a read-only ``(L, V)`` array.
    All bound evaluation runs on numpy views of it; non-finite
    entries (vertices unreachable from a landmark) contribute nothing
    — the affected landmark's term degrades to the trivial bound 0
    for that pair.
    """

    def __init__(self, mesh, landmarks, surface: np.ndarray):
        landmarks = tuple(int(l) for l in landmarks)
        if surface.shape != (len(landmarks), mesh.num_vertices):
            raise GeodesicError(
                f"landmark table shape {surface.shape} does not "
                f"match {len(landmarks)} landmarks x "
                f"{mesh.num_vertices} vertices"
            )
        surface.setflags(write=False)
        self.mesh = mesh
        self.landmarks = landmarks
        self.surface = surface

    @classmethod
    def build(cls, mesh, count: int = 8, seed: int = 0) -> "LandmarkIndex":
        """Select ``count`` landmarks (clamped to the vertex count) and
        compute their exact rows, one propagation after another."""
        if count < 1:
            raise GeodesicError(f"landmark count must be >= 1, got {count}")
        count = min(int(count), mesh.num_vertices)
        with current().phase("landmark-build"):
            landmarks = _select_landmarks(mesh, count, seed)
            surface = np.vstack(
                [ExactGeodesic(mesh, l).distances() for l in landmarks]
            )
        active_registry().counter("landmark.build").add(1)
        return cls(mesh, landmarks, surface)

    @property
    def count(self) -> int:
        return len(self.landmarks)

    # ------------------------------------------------------------------
    # bounds
    # ------------------------------------------------------------------

    def lower_bound(self, u: int, v: int) -> float:
        """``max_l |dS(l,u) - dS(l,v)| <= dS(u,v)`` (triangle
        inequality of the surface metric; 0 when a landmark cannot
        see either vertex)."""
        diff = self.surface[:, int(u)] - self.surface[:, int(v)]
        bounds = np.where(np.isfinite(diff), np.abs(diff), 0.0)
        return float(bounds.max(initial=0.0))

    def lower_bound_batch(self, sources, targets) -> np.ndarray:
        """Vectorized :meth:`lower_bound` over parallel index arrays
        (either side may be a scalar, broadcast against the other)."""
        s = np.atleast_1d(np.asarray(sources, dtype=np.intp))
        t = np.atleast_1d(np.asarray(targets, dtype=np.intp))
        diff = self.surface[:, s] - self.surface[:, t]
        bounds = np.where(np.isfinite(diff), np.abs(diff), 0.0)
        return bounds.max(axis=0, initial=0.0)

    def anchored_lower_bounds(self, anchors, vertices) -> np.ndarray:
        """Lower bounds from an anchored query source to each vertex.

        ``anchors`` are MR3 ``(vertex, offset)`` pairs where the
        offset is the length of a genuine surface path from the query
        point to the anchor vertex, so
        ``dS(q, v) >= lower_bound(a, v) - offset`` for every anchor —
        the composed bound is the best anchor's, clipped at 0.
        """
        t = np.atleast_1d(np.asarray(vertices, dtype=np.intp))
        out = np.zeros(t.shape, dtype=float)
        for vertex, offset in anchors:
            row = self.lower_bound_batch(int(vertex), t) - float(offset)
            np.maximum(out, row, out=out)
        return np.maximum(out, 0.0, out=out)

    def concat_upper_bounds(self, anchors, vertices) -> np.ndarray:
        """Landmark-concatenation upper bounds per candidate vertex:
        ``min_a (offset_a + min_l (dS(l,a) + dS(l,v)))``.

        Each term is the length of a genuine surface path
        (query→anchor→landmark→candidate), so every entry
        over-estimates ``dS(q, v)`` — the ranking loop composes these
        with DMTM network bounds (running min) and seeds its pruning
        threshold from the k-th smallest.  ``inf`` where no landmark
        sees both sides.
        """
        t = np.atleast_1d(np.asarray(vertices, dtype=np.intp))
        best = np.full(t.shape, np.inf)
        surface = self.surface
        for vertex, offset in anchors:
            via = surface[:, [int(vertex)]] + surface[:, t]
            via = np.where(np.isfinite(via), via, np.inf)
            np.minimum(best, float(offset) + via.min(axis=0), out=best)
        return best

    def kth_upper_bound(self, anchors, vertices, k: int) -> float:
        """Admissible seed for the ranking loop's pruning threshold:
        the k-th smallest :meth:`concat_upper_bounds` entry over the
        candidate vertices.  Skipping a candidate whose lower bound
        already exceeds it is safe before any DMTM upper bound exists.
        ``inf`` when fewer than ``k`` candidates get a finite bound.
        """
        best = self.concat_upper_bounds(anchors, vertices)
        finite = np.sort(best[np.isfinite(best)])
        if finite.size >= k:
            return float(finite[k - 1])
        return float("inf")
