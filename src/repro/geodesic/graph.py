"""A small graph builder with arbitrary hashable node keys.

Pathnets, SDN networks and embedded query points all need to mix node
kinds (mesh vertices, Steiner points, segment chunks, the query point
itself).  :class:`KeyedGraph` maps hashable keys to dense integer ids
and compiles an adjacency list suitable for
:func:`repro.geodesic.dijkstra.dijkstra`, plus a memoized CSR form
for the flat-array kernels in :mod:`repro.geodesic.csr`.

Graphs normally grow by :meth:`KeyedGraph.add_node` /
:meth:`KeyedGraph.add_edge`; :meth:`KeyedGraph.from_arrays` adopts a
pre-compiled CSR form wholesale (the vectorised pathnet builder in
:mod:`repro.geodesic.frontier`), deferring the Python adjacency-list
mirror until something actually needs it.
"""

from __future__ import annotations

from repro.errors import GeodesicError


class KeyedGraph:
    """An undirected weighted graph over hashable node keys."""

    def __init__(self):
        self._ids: dict = {}
        self._keys: list = []
        self._adj: list[list[tuple[int, float]]] | None = []
        self._positions: list = []  # per-node 3D position or None
        # Compiled CSR form, memoized until the next mutation — many
        # searches run over each extracted network, so the compile
        # cost is paid once per graph, not once per call.
        self._csr = None

    @classmethod
    def from_arrays(cls, keys: list, positions, csr) -> "KeyedGraph":
        """Adopt a pre-compiled :class:`~repro.geodesic.csr.CSRGraph`.

        ``keys[i]`` is node i's key, ``positions`` an ``(n, 3)`` array
        (or None).  The Python adjacency mirror is reconstructed
        lazily from the CSR arrays — only oracle searches, adjacency
        readers and post-hoc mutation ever need it.
        """
        graph = cls.__new__(cls)
        graph._keys = list(keys)
        graph._ids = {key: i for i, key in enumerate(graph._keys)}
        if len(graph._ids) != len(graph._keys):
            raise GeodesicError("from_arrays keys are not unique")
        if positions is not None:
            graph._positions = list(positions)
        else:
            graph._positions = [None] * len(graph._keys)
        graph._adj = None  # lazily mirrored from the CSR form
        graph._csr = csr
        return graph

    def _ensure_adj(self) -> list[list[tuple[int, float]]]:
        adj = self._adj
        if adj is None:
            indptr, indices, weights = self._csr.lists()
            adj = self._adj = [
                list(zip(indices[indptr[u] : indptr[u + 1]],
                         weights[indptr[u] : indptr[u + 1]]))
                for u in range(len(indptr) - 1)
            ]
        return adj

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key) -> bool:
        return key in self._ids

    def add_node(self, key, position=None) -> int:
        """Add (or fetch) a node, returning its dense id.

        ``position`` (an optional 3D point) enables the A* heuristic
        on the compiled CSR graph; passing it for an existing node
        fills a previously missing position.
        """
        node_id = self._ids.get(key)
        if node_id is None:
            node_id = len(self._keys)
            self._ensure_adj()
            self._ids[key] = node_id
            self._keys.append(key)
            self._adj.append([])
            self._positions.append(position)
            self._csr = None
        elif position is not None and self._positions[node_id] is None:
            self._positions[node_id] = position
            # The compiled CSR captured a positions snapshot (or the
            # lack of one): filling a position must invalidate it too.
            self._csr = None
        return node_id

    def add_edge(self, key_a, key_b, weight: float) -> None:
        """Add an undirected edge; creates missing endpoints."""
        if weight < 0:
            raise GeodesicError(f"negative edge weight {weight}")
        a = self.add_node(key_a)
        b = self.add_node(key_b)
        if a == b:
            return
        self._ensure_adj()
        self._adj[a].append((b, float(weight)))
        self._adj[b].append((a, float(weight)))
        self._csr = None

    def node_id(self, key) -> int:
        node_id = self._ids.get(key)
        if node_id is None:
            raise GeodesicError(f"unknown node key {key!r}")
        return node_id

    def key_of(self, node_id: int):
        return self._keys[node_id]

    def position_of(self, node_id: int):
        return self._positions[node_id]

    @property
    def adjacency(self) -> list[list[tuple[int, float]]]:
        """The compiled adjacency list (shared, do not mutate)."""
        return self._ensure_adj()

    def csr(self):
        """The compiled :class:`repro.geodesic.csr.CSRGraph`.

        Memoized; any :meth:`add_node`/:meth:`add_edge` invalidates
        the cached compilation.  Positions are attached only when
        every node has one (A* needs the full heuristic table).  The
        build is assigned atomically, so concurrent readers of a
        finished graph (batch workers sharing a cached NetworkView)
        at worst duplicate the compile.
        """
        csr = self._csr
        if csr is None:
            from repro.geodesic.csr import csr_from_adjacency

            positions = self._positions
            if positions and all(p is not None for p in positions):
                csr = csr_from_adjacency(self._ensure_adj(), positions=positions)
            else:
                csr = csr_from_adjacency(self._ensure_adj())
            self._csr = csr
        return csr

    def csr_if_compiled(self):
        """The memoized CSR form, or None when it was never compiled
        (or was invalidated).  The kernel dispatchers use this to apply
        the compile-on-reuse rule: a graph searched once is cheaper on
        the dict kernel than on compile-then-search."""
        return self._csr

    def degree(self, key) -> int:
        return len(self._ensure_adj()[self.node_id(key)])

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._ensure_adj()) // 2
