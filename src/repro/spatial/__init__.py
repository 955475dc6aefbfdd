"""Spatial indexing substrate.

MR3's steps 1 and 3 are plain 2D spatial queries over the object
projections ``Dxy`` — a k-NN query and a range query — which the
paper serves from a conventional spatial index.  This package
provides the one index used throughout and the clustering key:

* :class:`RTree` — dynamic R-tree with range and best-first k-NN
  search (used for ``Dxy``, the shard tile grid and the IER
  baseline's candidates);
* :mod:`repro.spatial.zorder` — Z-order (Morton) keys that cluster
  DMTM node and face records on their pages.
"""

from repro.spatial.rtree import RTree
from repro.spatial.zorder import zorder_key, zorder_key_normalized

__all__ = [
    "RTree",
    "zorder_key",
    "zorder_key_normalized",
]
