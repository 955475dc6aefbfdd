"""Shortest-path machinery: network Dijkstra, pathnets, exact surface
geodesics and the Kanai–Suzuki approximate geodesic on a selectively
refined pathnet.

Terminology (matching the paper):

* ``dE`` — Euclidean distance (2D or 3D);
* ``dN`` — network distance: shortest path *along edges* of a mesh or
  support network (computed here by :func:`dijkstra`);
* ``dS`` — surface distance: shortest path on the polyhedral surface,
  allowed to cut across faces (computed exactly by
  :class:`ExactGeodesic`, approximated by
  :func:`kanai_suzuki_distance` or a dense pathnet ``dN``).
"""

from repro.geodesic.graph import KeyedGraph
from repro.geodesic.dijkstra import (
    dijkstra,
    dijkstra_reference,
    dijkstra_with_parents,
    shortest_path,
)
from repro.geodesic.csr import (
    CSRGraph,
    astar_csr,
    csr_from_adjacency,
    dijkstra_csr,
    dijkstra_csr_with_parents,
    multi_source_dijkstra_csr,
)
from repro.geodesic.frontier import (
    dijkstra_frontier,
    dijkstra_frontier_with_parents,
    multi_source_frontier,
)
from repro.geodesic.pathnet import (
    build_pathnet,
    pathnet_distance,
    pathnet_shortest_path,
    vertex_key,
    steiner_key,
)
from repro.geodesic.exact import ExactGeodesic, exact_surface_distance
from repro.geodesic.kanai_suzuki import kanai_suzuki_distance
from repro.geodesic.landmarks import LandmarkIndex, mesh_fingerprint

__all__ = [
    "KeyedGraph",
    "CSRGraph",
    "dijkstra",
    "dijkstra_reference",
    "dijkstra_with_parents",
    "dijkstra_csr",
    "dijkstra_csr_with_parents",
    "multi_source_dijkstra_csr",
    "astar_csr",
    "csr_from_adjacency",
    "dijkstra_frontier",
    "dijkstra_frontier_with_parents",
    "multi_source_frontier",
    "shortest_path",
    "build_pathnet",
    "pathnet_distance",
    "pathnet_shortest_path",
    "vertex_key",
    "steiner_key",
    "ExactGeodesic",
    "exact_surface_distance",
    "kanai_suzuki_distance",
    "LandmarkIndex",
    "mesh_fingerprint",
]
