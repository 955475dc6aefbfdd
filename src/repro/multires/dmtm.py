"""DMTM — the Distance MultiresoluTion Mesh.

One unified structure covering every resolution MR3 touches:

* ``resolution <= 1.0`` — a DDM cut keeping that fraction of the
  original vertices; network edges carry representative-path
  distances, so Dijkstra over a cut yields a genuine original-surface
  path length, i.e. a valid **upper bound** of ``dS``;
* ``resolution == 1.0`` — the original mesh itself (the cut at step 0);
* ``resolution == RESOLUTION_PATHNET (2.0)`` — the Steiner pathnet,
  "DMTM resolution 200 %", where the paper takes ``dN = dS`` by
  definition.

When storage is attached (:meth:`attach_storage`), every extraction
charges the shared buffer pool for the node/face records it uses —
the "pages accessed" observable of Figures 9–11.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MultiresError
from repro.geodesic.csr import (
    graph_dijkstra_with_parents,
    multi_source_dijkstra_csr,
    tree_path,
)
from repro.geodesic.graph import KeyedGraph
from repro.geodesic.pathnet import build_pathnet, vertex_key
from repro.geometry.primitives import BoundingBox, region_boxes, rows_meeting_boxes
from repro.multires.ddm import CompiledCut, DistanceDirectMesh
from repro.spatial.zorder import zorder_keys
from repro.storage.locator import LocatorStore
from repro.storage.pages import PageManager
from repro.storage.stats import PAGE_CLASS_DMTM

RESOLUTION_PATHNET = 2.0

#: Record sizes on DMTM pages.  A node record is a head of id,
#: representative vertex, birth step, error and position
#: (``<qqqd3dH``, 58 bytes) and one ``<qd`` (16 bytes) per
#: neighbour record; a face record is its id, three vertex ids and
#: nine coordinates (``<q3q9d``, 104 bytes).
NODE_RECORD_HEAD_BYTES = 58
NODE_RECORD_ENTRY_BYTES = 16
FACE_RECORD_BYTES = 104


@dataclass(eq=False)
class NetworkView:
    """A network extracted from the DMTM at some resolution/ROI.

    A pathnet level (``resolution > 1``) carries its own ``graph``.  A
    cut level carries ``cut``, the step's
    :class:`~repro.multires.ddm.CompiledCut` shared by every view of
    that step, and ``region``, the mask of the cut's rows the ROI
    keeps (None keeps them all); its searches run on the compiled cut
    in place, restricted to the region."""

    resolution: float
    records_used: int
    step: int | None = None
    graph: KeyedGraph | None = None
    cut: CompiledCut | None = None
    region: np.ndarray | None = None

    def cut_row(self, node_id: int) -> int | None:
        """The compiled-cut row of DDM node ``node_id`` in this cut
        -level network, or None when the node is not in it (not alive
        at the step, or outside the region)."""
        row = int(self.cut.local[node_id])
        if row < 0 or (self.region is not None and not self.region[row]):
            return None
        return row


@dataclass
class UpperBoundResult:
    """Outcome of one DMTM upper-bound estimation."""

    value: float
    path_keys: list
    resolution: float


class DMTM:
    """Distance multiresolution mesh over a terrain.

    Parameters
    ----------
    mesh:
        The original :class:`repro.terrain.TriangleMesh`.
    steiner_per_edge:
        Steiner points per edge at the pathnet level (paper: 1).
    """

    def __init__(self, mesh, steiner_per_edge: int = 1, ddm=None):
        self.mesh = mesh
        self.ddm = ddm if ddm is not None else DistanceDirectMesh(mesh)
        self.steiner_per_edge = steiner_per_edge
        self._node_store: LocatorStore | None = None
        self._face_store: LocatorStore | None = None
        # The page of every node and face record, by node / face id,
        # resolved when storage is attached.
        self._node_pages: np.ndarray | None = None
        self._face_pages: np.ndarray | None = None
        # Each face's xy-MBR row [lo_x, lo_y, hi_x, hi_y], for pathnet
        # ROI selection.
        fx = mesh.vertices[mesh.faces, 0]
        fy = mesh.vertices[mesh.faces, 1]
        self._face_rows = np.column_stack(
            (fx.min(axis=1), fy.min(axis=1), fx.max(axis=1), fy.max(axis=1))
        )

    def save(self, path) -> None:
        """Persist the collapse history (the expensive build product);
        reload with :meth:`load`."""
        from repro.multires.persist import save_history

        save_history(self.ddm.history, path)

    @classmethod
    def load(cls, mesh, path, steiner_per_edge: int = 1) -> "DMTM":
        """Rebuild a DMTM from a saved history and the original mesh."""
        from repro.multires.ddm import DistanceDirectMesh
        from repro.multires.persist import load_history

        history = load_history(path)
        if history.num_leaves != mesh.num_vertices:
            raise MultiresError(
                f"history has {history.num_leaves} leaves but the mesh "
                f"has {mesh.num_vertices} vertices"
            )
        ddm = DistanceDirectMesh(mesh, history)
        return cls(mesh, steiner_per_edge=steiner_per_edge, ddm=ddm)

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------

    def attach_storage(self, pages: PageManager) -> None:
        """Lay the DMTM out on pages (z-order clustered) so that
        extractions are charged page I/O.

        Node and face keys come from one :func:`zorder_keys` pass
        each, and each store cuts its pages from its record sizes
        (:data:`NODE_RECORD_HEAD_BYTES` plus
        :data:`NODE_RECORD_ENTRY_BYTES` per neighbour record for a
        node, :data:`FACE_RECORD_BYTES` for a face).  Records are
        listed by id, so each store's row pages are its id -> page
        array."""
        world = self.mesh.xy_bounds()
        nodes = self.ddm.history.nodes
        node_sizes = NODE_RECORD_HEAD_BYTES + NODE_RECORD_ENTRY_BYTES * np.fromiter(
            (len(node.records) for node in nodes), dtype=np.int64, count=len(nodes)
        )
        self._node_store = LocatorStore(
            zorder_keys(self.ddm.node_positions(), world),
            node_sizes,
            pages,
            page_class=PAGE_CLASS_DMTM,
        )
        self._node_pages = self._node_store.row_pages
        points = self.mesh.vertices[self.mesh.faces]
        centroids = (points[:, 0] + points[:, 1] + points[:, 2]) / 3.0
        self._face_store = LocatorStore(
            zorder_keys(centroids, world),
            np.full(len(points), FACE_RECORD_BYTES),
            pages,
            page_class=PAGE_CLASS_DMTM,
        )
        self._face_pages = self._face_store.row_pages

    def _touch_nodes(self, node_ids) -> None:
        store = self._node_store
        if store is not None:
            store.touch_pages(self._node_pages[np.asarray(node_ids, dtype=np.int64)])

    def _touch_faces(self, face_ids) -> None:
        store = self._face_store
        if store is not None:
            store.touch_pages(self._face_pages[np.asarray(face_ids, dtype=np.int64)])

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------

    def touch_region(self, resolution: float, roi=None) -> None:
        """Charge page I/O for the records an extraction over ``roi``
        at ``resolution`` would use, without building the network.

        MR3's integrated I/O regions fetch a merged region once
        (through this method) and then run per-candidate extractions
        with ``charge_io=False``.
        """
        roi = region_boxes(roi)
        if resolution <= 1.0:
            step = self.ddm.step_for_fraction(resolution)
            self._touch_nodes(self.ddm.cut_node_ids(step, roi))
        else:
            self._touch_faces(self._faces_in_roi(roi))

    def extract_network(
        self, resolution: float, roi=None, charge_io: bool = True
    ) -> NetworkView:
        """The network at ``resolution`` restricted to ``roi``.

        ``roi`` may be None, one :class:`BoundingBox`, or a list of
        boxes (MR3's refined search regions).  ``charge_io=False``
        skips page accounting (use when the covering region was
        already fetched via :meth:`touch_region`).
        """
        roi = region_boxes(roi)
        if resolution <= 1.0:
            return self._extract_cut(resolution, roi, charge_io)
        return self._extract_pathnet(resolution, roi, charge_io)

    def _extract_cut(self, resolution: float, roi, charge_io: bool) -> NetworkView:
        """The step's compiled cut and the mask of its rows meeting
        ``roi``: the Direct Mesh jumps straight to the records a
        region needs, so nothing is built per region."""
        step = self.ddm.step_for_fraction(resolution)
        cut = self.ddm.compiled_cut(step)
        region = None if roi is None else rows_meeting_boxes(cut.rows, roi)
        ids = cut.ids if region is None else cut.ids[region]
        if charge_io:
            self._touch_nodes(ids)
        return NetworkView(
            resolution=resolution,
            records_used=int(ids.size),
            step=step,
            cut=cut,
            region=region,
        )

    def _faces_in_roi(self, roi) -> np.ndarray:
        if roi is None:
            return np.arange(self.mesh.num_faces)
        return np.flatnonzero(rows_meeting_boxes(self._face_rows, roi))

    def _steiner_for(self, resolution: float) -> int:
        """Steiner density of a pathnet-level resolution.

        200 % = the configured density (paper default 1/edge); every
        further +100 % adds one Steiner point per edge — the paper's
        "simply inserting more Steiner points into the highest LOD
        surface model to generate DMTM at higher resolution".
        """
        extra = max(0, int(round(resolution)) - 2)
        return self.steiner_per_edge + extra

    def _extract_pathnet(self, resolution: float, roi, charge_io: bool = True) -> NetworkView:
        faces = self._faces_in_roi(roi)
        if charge_io:
            self._touch_faces(faces)
        graph = build_pathnet(self.mesh, self._steiner_for(resolution), faces)
        return NetworkView(
            resolution=resolution,
            records_used=int(len(faces)),
            step=None,
            graph=graph,
        )

    # ------------------------------------------------------------------
    # upper bounds
    # ------------------------------------------------------------------

    def upper_bound(
        self,
        vertex_a: int,
        vertex_b: int,
        resolution: float,
        roi=None,
        network: NetworkView | None = None,
    ) -> UpperBoundResult | None:
        """Estimate ``ub(vertex_a, vertex_b)`` at a resolution.

        Returns None when the restricted network does not connect the
        two points (the caller should widen the region — the paper's
        "expanded by double each vertex's MBR" rule).  A reusable
        ``network`` (from :meth:`extract_network`) skips re-extraction
        when several pairs share one region.
        """
        if network is None:
            network = self.extract_network(resolution, roi)
        if network.resolution <= 1.0:
            return self._upper_bound_cut(vertex_a, vertex_b, network)
        return self._upper_bound_pathnet(vertex_a, vertex_b, network)

    def _upper_bound_cut(
        self, vertex_a: int, vertex_b: int, network: NetworkView
    ) -> UpperBoundResult | None:
        step = network.step
        anc_a, off_a = self.ddm.ancestor(vertex_a, step)
        anc_b, off_b = self.ddm.ancestor(vertex_b, step)
        sid = network.cut_row(anc_a)
        tid = network.cut_row(anc_b)
        if sid is None or tid is None:
            return None
        if anc_a == anc_b:
            return UpperBoundResult(
                value=off_a + off_b,
                path_keys=[("n", anc_a)],
                resolution=network.resolution,
            )
        cut = network.cut
        dist, parent = graph_dijkstra_with_parents(
            cut.csr, sid, targets={tid}, region=network.region
        )
        if tid not in dist:
            return None
        ids = cut.id_list
        return UpperBoundResult(
            value=off_a + dist[tid] + off_b,
            path_keys=[("n", ids[n]) for n in tree_path(parent, tid)],
            resolution=network.resolution,
        )

    def _upper_bound_pathnet(
        self, vertex_a: int, vertex_b: int, network: NetworkView
    ) -> UpperBoundResult | None:
        graph = network.graph
        key_a = vertex_key(vertex_a)
        key_b = vertex_key(vertex_b)
        if key_a not in graph or key_b not in graph:
            return None
        sid = graph.node_id(key_a)
        tid = graph.node_id(key_b)
        dist, parent = graph_dijkstra_with_parents(graph, sid, targets={tid})
        if tid not in dist:
            return None
        return UpperBoundResult(
            value=dist[tid],
            path_keys=[graph.key_of(n) for n in tree_path(parent, tid)],
            resolution=network.resolution,
        )

    def upper_bounds_from(
        self, source_vertex: int, target_vertices, network: NetworkView
    ) -> dict[int, UpperBoundResult | None]:
        """Single-source upper bounds toward many candidates.

        All k-NN candidates share the query as source, so one Dijkstra
        over a shared network serves them all — the main CPU saving of
        fetching an integrated region once.
        """
        if network.resolution <= 1.0:
            return self._upper_bounds_from_cut(
                source_vertex, target_vertices, network
            )
        graph = network.graph
        key_s = vertex_key(source_vertex)
        if key_s not in graph:
            return {v: None for v in target_vertices}
        sid = graph.node_id(key_s)
        target_ids = {
            graph.node_id(vertex_key(v))
            for v in target_vertices
            if vertex_key(v) in graph
        }
        dist, parent = graph_dijkstra_with_parents(graph, sid, targets=target_ids)
        results: dict[int, UpperBoundResult | None] = {}
        for v in target_vertices:
            key_v = vertex_key(v)
            if key_v not in graph:
                results[v] = None
                continue
            tid = graph.node_id(key_v)
            if tid == sid:
                results[v] = UpperBoundResult(
                    value=0.0, path_keys=[key_v], resolution=network.resolution
                )
                continue
            if tid not in dist:
                results[v] = None
                continue
            results[v] = UpperBoundResult(
                value=dist[tid],
                path_keys=[graph.key_of(n) for n in tree_path(parent, tid)],
                resolution=network.resolution,
            )
        return results

    def _upper_bounds_from_cut(
        self, source_vertex: int, target_vertices, network: NetworkView
    ) -> dict[int, UpperBoundResult | None]:
        """:meth:`upper_bounds_from` at a cut level: one search over
        the region of the compiled cut, each value composed as
        ``(off_s + off_t) + d``."""
        step = network.step
        anc_s, off_s = self.ddm.ancestor(source_vertex, step)
        sid = network.cut_row(anc_s)
        if sid is None:
            return {v: None for v in target_vertices}
        rows: dict[int, tuple[int | None, float]] = {}
        for v in target_vertices:
            anc_v, off_v = self.ddm.ancestor(v, step)
            rows[v] = (network.cut_row(anc_v), off_s + off_v)
        cut = network.cut
        dist, parent = graph_dijkstra_with_parents(
            cut.csr,
            sid,
            targets={row for row, _extra in rows.values() if row is not None},
            region=network.region,
        )
        ids = cut.id_list
        results: dict[int, UpperBoundResult | None] = {}
        for v in target_vertices:
            tid, extra = rows[v]
            if tid is None:
                results[v] = None
                continue
            if tid == sid:
                results[v] = UpperBoundResult(
                    value=extra,
                    path_keys=[("n", ids[tid])],
                    resolution=network.resolution,
                )
                continue
            if tid not in dist:
                results[v] = None
                continue
            results[v] = UpperBoundResult(
                value=extra + dist[tid],
                path_keys=[("n", ids[n]) for n in tree_path(parent, tid)],
                resolution=network.resolution,
            )
        return results

    def upper_bounds_multi(
        self, anchors, target_vertices, network: NetworkView
    ) -> dict[int, tuple[float, list]]:
        """Best combined upper bound per target over all ``(vertex,
        offset)`` source anchors: ``min over anchors a of
        (offset_a + ub(a, target))``, strict minimum so the
        first-listed anchor wins ties.

        Returns ``{target_vertex: (value, path_keys)}``, omitting
        unreachable targets — the contract of
        ``DistanceRanker._combined_ubs``.

        At the pathnet level this settles every anchor and every
        candidate in ONE multi-source search instead of one Dijkstra
        per anchor; the multi-source priority is recomposed as
        ``offset + raw`` per relaxation, the float expression the
        per-anchor path evaluates, so values agree with one search per
        anchor up to an ulp where anchors' labels meet (see
        :func:`repro.geodesic.csr.multi_source_heap`).  Cut levels keep the
        per-anchor composition ``offset_a + (off_s + off_t + d)``
        whose float rounding a folded search could not reproduce, so
        they run one multi-target search per anchor.
        """
        if network.resolution > 1.0:
            return self._upper_bounds_multi_pathnet(
                anchors, target_vertices, network
            )
        best: dict[int, tuple[float, list]] = {}
        for anchor_vertex, offset in anchors:
            results = self.upper_bounds_from(
                anchor_vertex, target_vertices, network
            )
            for vertex, result in results.items():
                if result is None:
                    continue
                value = offset + result.value
                current = best.get(vertex)
                if current is None or value < current[0]:
                    best[vertex] = (value, result.path_keys)
        return best

    def _upper_bounds_multi_pathnet(
        self, anchors, target_vertices, network: NetworkView
    ) -> dict[int, tuple[float, list]]:
        graph = network.graph
        sources = []
        for anchor_vertex, offset in anchors:
            key = vertex_key(anchor_vertex)
            if key in graph:
                sources.append((graph.node_id(key), float(offset)))
        if not sources:
            return {}
        target_ids = {
            graph.node_id(vertex_key(v))
            for v in target_vertices
            if vertex_key(v) in graph
        }
        found = multi_source_dijkstra_csr(
            graph.csr, sources, targets=set(target_ids)
        )
        best: dict[int, tuple[float, list]] = {}
        for v in target_vertices:
            key_v = vertex_key(v)
            if key_v not in graph:
                continue
            tid = graph.node_id(key_v)
            if tid not in found.value:
                continue
            path_keys = [graph.key_of(n) for n in found.path_to(tid)]
            best[v] = (found.value[tid], path_keys)
        return best

    # ------------------------------------------------------------------
    # refined search regions
    # ------------------------------------------------------------------

    def path_region(
        self, path_keys, expand: float = 0.0
    ) -> list[BoundingBox]:
        """MR3's refined search region for the *next* resolution: the
        MBRs of the descendants of the nodes on the current
        upper-bound path, each optionally expanded (the paper doubles
        vertex MBRs when the corridor proves too narrow)."""
        boxes: list[BoundingBox] = []
        for key in path_keys:
            if key[0] == "n":
                box = self.ddm.node_mbr(key[1])
            elif key[0] == "v":
                p = tuple(self.mesh.vertices[key[1]][:2])
                box = BoundingBox(p, p)
            elif key[0] == "s":
                u, w = self.mesh.edge_vertices[key[1]]
                box = BoundingBox.of_points(
                    self.mesh.vertices[[int(u), int(w)], :2]
                )
            else:
                raise MultiresError(f"unknown path key {key!r}")
            if expand > 0.0:
                box = box.expanded(expand)
            boxes.append(box)
        return boxes
