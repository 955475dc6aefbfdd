"""The four benchmark workloads.

Each workload fixes its terrain, its objects and its query
*population*; ``--seed`` only decides the order in which that
population is sent.  The population is fixed because the benchmark
compares medians over runs with different seeds: on rugged terrain
the cost of one query depends so strongly on where it lands that
thirty seeded random queries differ by 20-30 % in total cost from one
seed to the next, which would swamp any regression worth catching.
The order still matters where the workload has shared state:
``hot_batch`` decides which worker computes a shared bound first and
``tiled_scale`` decides which query pays for each window build.

Query positions come from a Halton sequence over the interior grid
vertices (k from a third Halton dimension), so the population is
evenly spread over the terrain.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro import TriangleMesh, bearhead_like, eagle_peak_like, fractal_dem
from repro.core import SurfaceKNNEngine
from repro.shard.engine import ShardedEngine, uniform_grid_objects

#: sha1 of each workload's DEM heights and object vertex list.  A
#: mismatch means the inputs changed and the run fails.
_BEARHEAD_25 = {
    "dem": "9b96c6754b8965776234c78419bcd3b02a9b2909",
    "objects": "60a75b107040d52a5e43600f13c3e633001a7d56",
}
FINGERPRINTS = {
    "rugged_knn": _BEARHEAD_25,
    "dense_point": {
        "dem": "c0025e72374f4770f5a56f6a7d00d836b4336414",
        "objects": "b3a44c068cd30942d47613b098988b48146bd02d",
    },
    "hot_batch": _BEARHEAD_25,
    "tiled_scale": {
        "dem": "3bcf015a3bfd73810979785f4ad5696c9cc59f44",
        "objects": "a3428ba268f3f3d2cded136263b3fd3190b2dcb8",
    },
}


@dataclass(frozen=True)
class Workload:
    """One workload: what to build and which queries to send.

    ``kind`` is how the stream is driven: ``engine`` (one client,
    ``SurfaceKNNEngine.query`` in a loop), ``batch``
    (``BatchQueryExecutor.run`` with two workers) or ``sharded`` (one
    client, ``ShardedEngine.query`` in a loop).  ``queries`` is the
    population size, chosen so the four passes of a run, with their
    set-ups, take about fifteen reference seconds (see ``speed.py``);
    ``--quick`` keeps a fifth of it, rounded up.
    ``rounds`` sends the population that many times per pass, each
    time in a new order.
    """

    name: str
    kind: str
    make_dem: Callable
    ks: tuple
    queries: int
    density: float = 0.0
    landmarks: int | None = None
    grid_objects: int = 0
    hot_vertices: int = 0
    rounds: int = 1

    @property
    def sequential(self) -> bool:
        return self.kind != "batch"

    def object_vertices(self, dem):
        """Object vertex ids handed to a sharded engine (the other
        workloads place theirs inside the engine, from ``density``)."""
        if self.kind != "sharded":
            return None
        return uniform_grid_objects(dem, self.grid_objects, seed=0)

    def build(self, dem, objects=None):
        """A fresh engine over ``dem``: the timed set-up."""
        if self.kind == "sharded":
            return ShardedEngine(dem, objects=objects, grid=(3, 3), max_workers=2)
        return SurfaceKNNEngine(
            TriangleMesh.from_dem(dem),
            density=self.density,
            landmarks=self.landmarks,
        )

    def size(self, quick: bool = False) -> int:
        """The number of queries in the population."""
        return math.ceil(self.queries / 5) if quick else self.queries

    def population(self, dem, quick: bool = False) -> list[tuple[int, int]]:
        """The fixed, seed-independent ``(vertex, k)`` queries."""
        size = self.size(quick)
        if self.kind == "batch":
            return zipf_population(dem, size, self.hot_vertices, self.ks)
        return halton_queries(dem, size, self.ks)

    def streams(self, dem, seed: int, passes: int,
                quick: bool = False) -> list[list[tuple[int, int]]]:
        """The stream of each of ``passes`` passes.

        ``hot_batch`` sends every pass in its own seeded order: which
        query of a hot vertex finds its bounds already cached depends
        on the order, so a query's median over passes is its cost over
        several orders, not in the one order a seed happens to pick.
        The other workloads send one stream in every pass."""
        if self.kind != "batch":
            return [self.stream(dem, seed, quick)] * passes
        return [self.stream(dem, [seed, p], quick) for p in range(passes)]

    def stream(self, dem, seed, quick: bool = False) -> list[tuple[int, int]]:
        """The population in the order ``seed`` picks.

        The shuffle keeps the queries of one vertex in population
        order: it interleaves vertices, but a hot vertex always sees
        its k values in the same sequence, so which of them pays for
        the shared bounds does not depend on the seed."""
        rng = np.random.default_rng(seed)
        queries = self.population(dem, quick)
        out = []
        for _ in range(self.rounds):
            pending = defaultdict(deque)
            for query in queries:
                pending[query[0]].append(query)
            out.extend(
                pending[queries[i][0]].popleft()
                for i in rng.permutation(len(queries))
            )
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rugged_knn", "engine", partial(bearhead_like, size=25),
            ks=tuple(range(2, 11)), queries=10,
            density=6.0, landmarks=8,
        ),
        Workload(
            "dense_point", "engine", partial(eagle_peak_like, size=33),
            ks=(1, 2, 3), queries=100, density=30.0,
        ),
        Workload(
            "hot_batch", "batch", partial(bearhead_like, size=25),
            ks=tuple(range(2, 7)), queries=24,
            density=6.0, landmarks=8, hot_vertices=8,
        ),
        Workload(
            "tiled_scale", "sharded", partial(fractal_dem, 25, 90.0, 500.0, 0.7),
            ks=(1, 2, 3), queries=5, grid_objects=64,
            rounds=4,
        ),
    )
}


def centre_vertex(dem) -> int:
    """The warm-up query vertex (never part of a stream)."""
    return (dem.rows // 2) * dem.cols + dem.cols // 2


def _sha1(values) -> str:
    return hashlib.sha1(np.ascontiguousarray(values).tobytes()).hexdigest()


def dem_fingerprint(dem) -> str:
    return _sha1(np.asarray(dem.heights, dtype=np.float64))


def objects_fingerprint(vertex_ids) -> str:
    return _sha1(np.asarray(list(vertex_ids), dtype=np.int64))


def halton(index: int, base: int) -> float:
    """The ``index``-th element of the van der Corput sequence."""
    result, scale = 0.0, 1.0
    while index > 0:
        scale /= base
        result += scale * (index % base)
        index //= base
    return result


def halton_queries(dem, size: int, ks) -> list[tuple[int, int]]:
    """``size`` distinct interior vertices (never the centre) in
    Halton order, each with a k from the third Halton coordinate."""
    inner_r, inner_c = dem.rows - 2, dem.cols - 2
    if size >= inner_r * inner_c:
        raise ValueError(f"{size} queries exceed the interior of the DEM")
    seen = {centre_vertex(dem)}
    out = []
    index = 0
    while len(out) < size:
        index += 1
        r = 1 + int(halton(index, 2) * inner_r)
        c = 1 + int(halton(index, 3) * inner_c)
        vertex = r * dem.cols + c
        if vertex not in seen:
            seen.add(vertex)
            out.append((vertex, ks[int(halton(index, 5) * len(ks))]))
    return out


def zipf_counts(total: int, ranks: int, exponent: float = 1.1) -> list[int]:
    """``total`` split over ``ranks`` in proportion to rank**-exponent
    (largest remainder, so the counts always sum to ``total``)."""
    shares = np.arange(1, ranks + 1, dtype=float) ** -exponent
    shares *= total / shares.sum()
    counts = np.floor(shares).astype(int)
    short = total - int(counts.sum())
    for i in np.argsort(counts - shares, kind="stable")[:short]:
        counts[i] += 1
    return [int(c) for c in counts]


def zipf_population(dem, size: int, hot: int, ks) -> list[tuple[int, int]]:
    """``size`` queries over ``hot`` vertices with Zipf(1.1)
    popularity; a vertex's j-th query cycles through ``ks``."""
    vertices = [v for v, _k in halton_queries(dem, hot, ks)]
    out = []
    for rank, (vertex, count) in enumerate(zip(vertices, zipf_counts(size, hot))):
        out.extend((vertex, ks[(rank + j) % len(ks)]) for j in range(count))
    return out
