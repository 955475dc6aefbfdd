"""The Distance Direct Mesh (DDM).

A thin, query-oriented wrapper over the QEM collapse history: it adds
the per-node xy MBRs of descendant leaves (used for ROI filtering and
for MR3's *refined search regions*) and exposes the cut/extraction
operations the DMTM needs.

The Direct Mesh connectivity-encoding of the original paper — each
node lists the ids of nodes "with a similar LOD" so extraction never
walks from the root — corresponds here to
:attr:`CollapseNode.records`: a node's record list names exactly the
nodes alive at its birth that it may connect to in some cut, each
with the DDM distance value.  Each cut is compiled once
(:class:`CompiledCut`), so extracting a region of it is one mask over
the cut's rows, never a network build.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MultiresError
from repro.geodesic.csr import CSRGraph
from repro.geometry.primitives import BoundingBox, rows_meeting_boxes
from repro.simplification.collapse import CollapseHistory, build_collapse_history


class CompiledCut:
    """The cut at one collapse step, compiled once and shared.

    ``ids`` are the alive node ids in ascending order; row ``i`` of
    ``rows`` is node ``ids[i]``'s descendant xy-MBR as ``[lo_x, lo_y,
    hi_x, hi_y]``, and ``csr`` is the cut network over those row
    numbers (local ids) with every recorded edge among them.
    ``local[node_id]`` is a node's row, or -1 when it is not alive.

    A region of the cut is a boolean mask over the rows
    (:func:`~repro.geometry.primitives.rows_meeting_boxes`); the
    network an ROI extraction would build is the subgraph the mask
    induces, with the same edges and weights, since a pair's edge
    depends only on that pair's records.  Local ids are monotone in
    node id, so a search over that subgraph breaks ties as a search
    over node ids would.
    """

    __slots__ = ("step", "ids", "id_list", "rows", "local", "csr")

    def __init__(self, step, ids, rows, local, csr):
        for array in (ids, rows, local):
            array.flags.writeable = False  # shared by every view
        self.step = step
        self.ids = ids
        self.id_list = ids.tolist()
        self.rows = rows
        self.local = local
        self.csr = csr


class DistanceDirectMesh:
    """DDM built from (or wrapped around) a collapse history."""

    def __init__(self, mesh, history: CollapseHistory | None = None):
        self.mesh = mesh
        self.history = history if history is not None else build_collapse_history(mesh)
        if len(self.history.roots) != 1:
            raise MultiresError(
                "terrain mesh must be connected; collapse produced "
                f"{len(self.history.roots)} roots"
            )
        self._node_mbrs = self._compute_node_mbrs()
        nodes = self.history.nodes
        never = self.history.num_steps + 1
        self._birth = np.array([n.birth_step for n in nodes], dtype=np.int64)
        self._death = np.array(
            [n.death_step if n.death_step is not None else never for n in nodes],
            dtype=np.int64,
        )
        self._mbr_rows = np.array(
            [b.lo + b.hi for b in self._node_mbrs], dtype=float
        ).reshape(-1, 4)
        self._positions = np.array([n.position for n in nodes], dtype=float)
        # Lazily flattened record lists ``(src, dst, dist)`` for
        # vectorized cut-edge selection (see cut_edge_arrays),
        # published as one tuple so a concurrent first touch never
        # sees a partial set.
        self._records: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # Compiled cuts by step, each built on first use and published
        # by one dict store once complete (concurrent first uses at
        # worst build one twice).
        self._cuts: dict[int, CompiledCut] = {}

    # -- derived structure ------------------------------------------------

    def _compute_node_mbrs(self) -> list[BoundingBox]:
        """xy MBR of each node's descendant original vertices.

        Children precede parents in creation order, so one forward
        pass suffices.
        """
        nodes = self.history.nodes
        mbrs: list[BoundingBox | None] = [None] * len(nodes)
        for node in nodes:
            if node.is_leaf:
                p = tuple(self.mesh.vertices[node.node_id][:2])
                mbrs[node.node_id] = BoundingBox(p, p)
            else:
                a, b = node.children
                mbrs[node.node_id] = mbrs[a].union(mbrs[b])
        return mbrs

    def node_mbr(self, node_id: int) -> BoundingBox:
        """xy MBR of the node's descendant leaves."""
        return self._node_mbrs[node_id]

    @property
    def num_leaves(self) -> int:
        return self.history.num_leaves

    @property
    def num_nodes(self) -> int:
        return len(self.history.nodes)

    # -- cuts ----------------------------------------------------------

    def step_for_fraction(self, fraction: float) -> int:
        return self.history.step_for_fraction(fraction)

    def cut_nodes(self, step: int, roi: BoundingBox | None = None) -> list[int]:
        """Nodes of the cut at ``step`` whose descendant MBR meets the
        (2D) region of interest."""
        boxes = None if roi is None else [roi.xy() if roi.dim == 3 else roi]
        return [int(n) for n in self.cut_node_ids(step, boxes)]

    def cut_node_ids(self, step: int, roi_boxes=None) -> np.ndarray:
        """Vectorized cut selection: node ids alive at ``step`` whose
        descendant xy-MBR intersects any ROI box (all when None), in
        ascending order."""
        cut = self.compiled_cut(step)
        if roi_boxes is None:
            return cut.ids
        return cut.ids[rows_meeting_boxes(cut.rows, roi_boxes)]

    def compiled_cut(self, step: int) -> CompiledCut:
        """The :class:`CompiledCut` at ``step`` (built on first use)."""
        cut = self._cuts.get(step)
        if cut is None:
            cut = self._compile_cut(step)
            self._cuts[step] = cut
        return cut

    def _compile_cut(self, step: int) -> CompiledCut:
        """Select the cut's recorded edges and compile them to CSR
        with array operations.  Node set, edge set and weights are
        those of a graph grown by one edge per :meth:`cut_edges` edge
        (same first-occurrence dedupe, see :meth:`cut_edge_arrays`),
        the oracle :func:`repro.testkit.reference.dmtm_cut_reference`;
        each node lists its higher-id neighbours, then its lower-id
        ones, each in ascending order."""
        ids = np.flatnonzero((self._birth <= step) & (self._death > step))
        nnodes = int(ids.size)
        local = np.full(self.num_nodes, -1, dtype=np.int64)
        local[ids] = np.arange(nnodes, dtype=np.int64)
        u, w, d = self.cut_edge_arrays(ids)
        lu = local[u]
        lw = local[w]
        src_dir = np.concatenate([lu, lw])
        dst_dir = np.concatenate([lw, lu])
        w_dir = np.concatenate([d, d])
        order = np.argsort(src_dir, kind="stable")
        indptr = np.zeros(nnodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src_dir, minlength=nnodes), out=indptr[1:])
        csr = CSRGraph(
            indptr, dst_dir[order], w_dir[order], positions=self._positions[ids]
        )
        return CompiledCut(step, ids, self._mbr_rows[ids], local, csr)

    def cut_edges(self, cut: list[int]):
        """(u, w, dist) edges among the cut (see CollapseHistory)."""
        return self.history.edges_of_cut(cut)

    def _record_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        records = self._records
        if records is None:
            src: list[int] = []
            dst: list[int] = []
            dists: list[float] = []
            for node in self.history.nodes:
                for nbr, d in node.records:
                    src.append(node.node_id)
                    dst.append(nbr)
                    dists.append(d)
            records = self._records = (
                np.asarray(src, dtype=np.int64),
                np.asarray(dst, dtype=np.int64),
                np.asarray(dists, dtype=float),
            )
        return records

    def cut_edge_arrays(
        self, cut_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized twin of :meth:`cut_edges`: ``(u, w, d)`` arrays
        of the recorded edges alive in the cut, each edge once with
        ``u < w``.

        Applies the same first-occurrence rule as
        ``CollapseHistory.edges_of_cut``: when a pair is recorded from
        both endpoints, the distance of the record met first in
        ascending (node, record-slot) order wins — the flattened
        record arrays preserve exactly that order, and ``np.unique``'s
        ``return_index`` picks the smallest index per key.
        """
        src, dst, d = self._record_arrays()
        alive = np.zeros(self.num_nodes, dtype=bool)
        alive[cut_ids] = True
        keep = alive[src] & alive[dst]
        s, t, dd = src[keep], dst[keep], d[keep]
        u = np.minimum(s, t)
        w = np.maximum(s, t)
        packed = u * np.int64(self.num_nodes) + w
        _uniq, first = np.unique(packed, return_index=True)
        u, w, dd = u[first], w[first], dd[first]
        loops = u != w  # a graph grown edge by edge drops self-loops
        return u[loops], w[loops], dd[loops]

    def node_positions(self) -> np.ndarray:
        """(num_nodes, 3) array of representative positions (shared,
        do not mutate)."""
        return self._positions

    def ancestor(self, leaf_id: int, step: int) -> tuple[int, float]:
        """(cut ancestor, representative path offset) for a vertex."""
        return self.history.ancestor_at_step(leaf_id, step)

    def node_position(self, node_id: int) -> np.ndarray:
        return self.history.nodes[node_id].position

    def approximate_vertices(self, fraction: float) -> np.ndarray:
        """Positions of the cut at ``fraction`` — the Fig. 1 style
        reduced-resolution terrain point set."""
        step = self.step_for_fraction(fraction)
        cut = self.history.cut_at_step(step)
        return np.array([self.history.nodes[n].position for n in cut])
