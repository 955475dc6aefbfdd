"""Shortest-path machinery: network Dijkstra on compiled CSR graphs,
pathnets, exact surface geodesics and the Kanai–Suzuki approximate
geodesic on a selectively refined pathnet.

Every graph searched here is a :class:`CSRGraph` built from arrays
(with :class:`KeyedGraph` node keys where nodes mix kinds), and every
search runs one of two kernels chosen by graph size: a heap kernel of
:mod:`repro.geodesic.csr` or the one bucketed numpy kernel of
:mod:`repro.geodesic.frontier`, which runs a single-source search as
its one-source case.  The dict kernels and the mutable graph builder
they replaced are oracles in :mod:`repro.testkit.reference`.

Terminology (matching the paper):

* ``dE`` — Euclidean distance (2D or 3D);
* ``dN`` — network distance: shortest path *along edges* of a mesh or
  support network (the mesh edge network is :func:`edge_network_csr`);
* ``dS`` — surface distance: shortest path on the polyhedral surface,
  allowed to cut across faces (computed exactly by
  :class:`ExactGeodesic`, approximated by
  :func:`kanai_suzuki_distance` or a dense pathnet ``dN``).
"""

from repro.geodesic.graph import KeyedGraph
from repro.geodesic.csr import (
    CSRGraph,
    astar_csr,
    dijkstra_csr_with_parents,
    edge_network_csr,
    graph_dijkstra_with_parents,
    multi_source_dijkstra_csr,
)
from repro.geodesic.frontier import multi_source_frontier
from repro.geodesic.pathnet import (
    build_pathnet,
    pathnet_distance,
    pathnet_shortest_path,
    vertex_key,
    steiner_key,
)
from repro.geodesic.exact import ExactGeodesic, exact_surface_distance
from repro.geodesic.kanai_suzuki import kanai_suzuki_distance, kanai_suzuki_distances
from repro.geodesic.landmarks import LandmarkIndex, mesh_fingerprint

__all__ = [
    "KeyedGraph",
    "CSRGraph",
    "dijkstra_csr_with_parents",
    "graph_dijkstra_with_parents",
    "multi_source_dijkstra_csr",
    "astar_csr",
    "edge_network_csr",
    "multi_source_frontier",
    "build_pathnet",
    "pathnet_distance",
    "pathnet_shortest_path",
    "vertex_key",
    "steiner_key",
    "ExactGeodesic",
    "exact_surface_distance",
    "kanai_suzuki_distance",
    "kanai_suzuki_distances",
    "LandmarkIndex",
    "mesh_fingerprint",
]
