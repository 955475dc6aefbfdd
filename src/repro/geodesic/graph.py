"""Hashable node keys over a compiled graph.

Pathnets and DMTM networks mix node kinds (mesh vertices, Steiner
points, collapse nodes), so their searches speak in keys.
:class:`KeyedGraph` maps each key to the dense row of one
:class:`~repro.geodesic.csr.CSRGraph`, built from arrays (the
vectorised pathnet builder in :mod:`repro.geodesic.frontier`) and
never mutated; the kernels search the CSR form, node positions
included.
"""

from __future__ import annotations

from repro.errors import GeodesicError


class KeyedGraph:
    """An undirected weighted graph over hashable node keys:
    ``keys[i]`` names row ``i`` of ``csr``."""

    __slots__ = ("_ids", "_keys", "csr")

    def __init__(self, keys, csr):
        self._keys = list(keys)
        self._ids = {key: i for i, key in enumerate(self._keys)}
        if len(self._ids) != len(self._keys):
            raise GeodesicError("node keys are not unique")
        self.csr = csr

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key) -> bool:
        return key in self._ids

    def node_id(self, key) -> int:
        node_id = self._ids.get(key)
        if node_id is None:
            raise GeodesicError(f"unknown node key {key!r}")
        return node_id

    def key_of(self, node_id: int):
        return self._keys[node_id]
