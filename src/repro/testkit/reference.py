"""Reference implementations kept as differential oracles.

The engine builds pathnets, DMTM cut networks, MSDN lower bounds,
the MSDN itself, the QEM collapse history, the DMTM page layout and
the mesh adjacency with array code.  The
straightforward object-walk versions it replaced live here, for tests
and the testkit ``oracle`` leg to call directly: each must agree with
its production twin exactly — same graph node for node and edge for
edge, same bound value, path keys and chunk count, same arrays and
page layout, same pages read in the same order.

* :func:`build_pathnet_reference` — the per-face Python loop behind
  :func:`repro.geodesic.pathnet.build_pathnet`;
* :func:`dmtm_cut_reference` — cut nodes selected by a walk over the
  collapse nodes, one ``add_edge`` per recorded cut edge and
  record-id page charging (:func:`dmtm_touch_nodes_reference`,
  :func:`dmtm_touch_faces_reference`, both through
  :func:`touch_records_reference`), the twin of
  :meth:`repro.multires.dmtm.DMTM.extract_network` at cut levels,
  searched by :func:`dmtm_upper_bound_cut_reference` and
  :func:`dmtm_upper_bounds_from_cut_reference` (keyed graphs, dict
  kernels), the twins of the in-place searches over a compiled cut;
  :func:`dmtm_cut_per_region` is the array build of one network per
  region that production ran before, kept as the bench baseline;
  :func:`dmtm_faces_reference` — pathnet faces as the union of
  :meth:`~repro.terrain.mesh.TriangleMesh.submesh_faces` per box;
* :func:`rows_meeting_boxes_reference` — one pass over the rows per
  box, the twin of :func:`repro.geometry.primitives.rows_meeting_boxes`;
* :func:`dmtm_upper_bounds_multi_reference` — one search per anchor,
  the twin of the single multi-source search behind
  :meth:`~repro.multires.dmtm.DMTM.upper_bounds_multi`;
* :func:`lower_bound_via_planes_broadcast` — the min-plus DP with
  broadcast ``(m1, m2, 3)`` hop matrices (:func:`_boxes_to_boxes`),
  the twin of :func:`repro.msdn.sdn.lower_bound_via_planes_arrays`
  and its per-coordinate hop kernel, and
  :func:`lower_bound_via_planes`, the same DP over chunk objects;
* :func:`msdn_lower_bound_reference` and
  :func:`msdn_touch_region_reference` — chunk-object filtering
  (:func:`msdn_layers_reference`), that DP and record-id page
  charging, the twins of
  :meth:`repro.msdn.msdn.MSDN.lower_bound` and
  :meth:`~repro.msdn.msdn.MSDN.touch_region`;
  :func:`msdn_screen_interval_reference` — the dummy-lb screen's
  interval as its definition, that bound as an exact interval, the
  twin of :meth:`~repro.msdn.msdn.MSDN.corridor_interval`, and
  :func:`msdn_screen_reference`, that bound against the threshold,
  the twin of :meth:`~repro.msdn.msdn.MSDN.corridor_reaches`;
  :func:`msdn_screen_masked_witness` — the screen that masked every
  row before pricing a :func:`witness_chain` through the masked
  layers (:func:`chain_upper_bound`), the bench baseline of the
  screen that prices the crossing rows before any mask;
  :func:`msdn_screen_arrays` — that screen pricing its crossing
  chain with arrays (:func:`crossing_rows_reference`, one argmin per
  plane, and :func:`chain_length_arrays`, the DP's kernels) and
  without the spine chain, the twin of the plain-float
  :func:`repro.msdn.sdn.chain_length` and the bisected
  :meth:`~repro.msdn.sdn.SdnFamily.crossing_rows`;
  :func:`planes_between_reference` — the plane selection as a mask
  over every plane value, the twin of its bisection;
  :func:`spine_chain_reference` — the screen's spine chain by walking
  chunk objects, one argmin per kept layer;
* :func:`kanai_suzuki_distances_reference` — one round-0 search per
  (source, target) pair, the twin of the shared round-0 search of
  :func:`repro.geodesic.kanai_suzuki.kanai_suzuki_distances`;
* :class:`MSDNReference` — the object MSDN build: one
  :class:`SdnChunk` per chunk (:func:`build_sdn_chunks` over the
  crossing lines) and a record-id :class:`RecordStoreReference` of
  its encoded records' sizes, the twin of the column-wise families of
  :class:`repro.msdn.msdn.MSDN` and their one-store layout;
  :func:`msdn_reference` keeps one
  per production MSDN for the chunk walks above and
  :func:`msdn_corridor_reference`;
* :func:`build_collapse_history_reference` — QEM contraction with
  one :func:`~repro.simplification.quadric.best_merge_position` call
  per pushed and per popped pair over per-face quadrics
  (:func:`vertex_quadrics_reference`), the twin of
  :func:`repro.simplification.collapse.build_collapse_history` and
  its collapse rounds, one fused merge-cost call per round;
* :func:`dmtm_attach_reference` — the DMTM laid out record by record,
  scalar z-order keys, record sizes from packed records and one
  id-addressed :class:`RecordStoreReference` (cut by the per-record
  :func:`paginate_reference`) each for nodes and faces, the twin of
  :meth:`repro.multires.dmtm.DMTM.attach_storage`;
  :func:`dmtm_reference_stores` keeps one per production DMTM for
  the record-id charging above;
* :func:`mesh_adjacency_reference` and :func:`dem_faces_reference` —
  the per-face loops behind
  :class:`~repro.terrain.mesh.TriangleMesh` adjacency and
  :meth:`~repro.terrain.mesh.TriangleMesh.from_dem` faces, the twins
  of their array passes;
* :func:`read_page_reference` — one buffer-pool read of one page,
  with its own locks, quarantine gate and statistics update, the twin
  of :meth:`repro.storage.pages.PageManager.read_pages` page by page;
* :class:`ExactGeodesicReference` — exact window propagation with one
  object per window and one method per step, the twin of the flat
  event loop of :class:`repro.geodesic.exact.ExactGeodesic`.

The graph form and kernels production dropped complete the set:

* :class:`KeyedGraphBuilder` — a keyed graph grown by ``add_node`` /
  ``add_edge`` into an adjacency list, the form
  :func:`build_pathnet_reference` and :func:`dmtm_cut_reference`
  build; :func:`csr_from_adjacency` compiles an adjacency list,
  :func:`csr_adjacency` reads one back out of a CSR graph and
  :func:`induced_adjacency` cuts out the subgraph a region induces;
* :func:`edge_network_reference` — the mesh edge network by one
  ``append`` per edge and direction, the twin of
  :func:`repro.geodesic.csr.edge_network_csr`;
* :func:`dijkstra_reference`, :func:`dijkstra_with_parents_reference`
  and :func:`shortest_path_reference` — the dict kernels over
  adjacency lists, reporting the same ``geodesic.dijkstra.*``
  counters: the with-parents kernel is the twin of the heap kernel
  and of the bucket kernel's one-source case, the distance-only one
  the distance oracle;
  :func:`graph_dijkstra_with_parents_reference` runs them on builder
  graphs and the production kernels on compiled ones.
"""

from __future__ import annotations

import heapq
import itertools
import math
import struct
import weakref
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.errors import (
    GeodesicError,
    GeometryError,
    PageCorruptionError,
    PageReadError,
    QuarantinedPageError,
    StorageError,
)
from repro.geodesic.csr import CSRGraph, graph_dijkstra_with_parents
from repro.geodesic.graph import KeyedGraph
from repro.geodesic.pathnet import steiner_key, vertex_key
from repro.geometry.polyline import Polyline, simplify_with_enclosure
from repro.geometry.primitives import (
    BoundingBox,
    box_corners,
    corner_boxes,
    region_boxes,
    rows_meeting_boxes,
)
from repro.msdn.msdn import (
    DEFAULT_RESOLUTIONS,
    LowerBoundResult,
    corridor_region,
    crossing_lines,
)
from repro.msdn.sdn import (
    _box_distances,
    _point_to_boxes,
    lower_bound_via_planes_arrays,
)
from repro.multires.dmtm import NetworkView, UpperBoundResult
from repro.simplification.collapse import CollapseHistory, CollapseNode
from repro.simplification.quadric import best_merge_position, face_quadric
from repro.spatial.zorder import zorder_key_normalized
from repro.obs.context import active_registry, current
from repro.obs.profile import kernel_phase
from repro.storage.faults import (
    FAULT_CORRUPT,
    FAULT_TRANSIENT,
    QUARANTINE_BLOCKED,
    QUARANTINE_PROBE,
    _TransientFault,
)
from repro.storage.pages import PageManager
from repro.storage.stats import PAGE_CLASS_DMTM, PAGE_CLASS_MSDN

# ----------------------------------------------------------------------
# graphs grown edge by edge, and the dict kernels that search them
# ----------------------------------------------------------------------

Adjacency = list  # list[list[tuple[int, float]]]


class KeyedGraphBuilder:
    """An undirected weighted graph over hashable node keys, grown by
    :meth:`add_node` / :meth:`add_edge` into a Python adjacency list —
    the graph form of the reference builders, searched on the dict
    kernels.  :func:`graph_dijkstra_with_parents_reference` routes it
    there; production builds a :class:`~repro.geodesic.graph.KeyedGraph`
    over arrays instead."""

    def __init__(self):
        self._ids: dict = {}
        self._keys: list = []
        self.adjacency: Adjacency = []
        self._positions: list = []  # per-node 3D position or None

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key) -> bool:
        return key in self._ids

    def add_node(self, key, position=None) -> int:
        """Add (or fetch) a node, returning its dense id; ``position``
        fills a missing position of an existing node."""
        node_id = self._ids.get(key)
        if node_id is None:
            node_id = len(self._keys)
            self._ids[key] = node_id
            self._keys.append(key)
            self.adjacency.append([])
            self._positions.append(position)
        elif position is not None and self._positions[node_id] is None:
            self._positions[node_id] = position
        return node_id

    def add_edge(self, key_a, key_b, weight: float) -> None:
        """Add an undirected edge; creates missing endpoints and drops
        self-loops."""
        if weight < 0:
            raise GeodesicError(f"negative edge weight {weight}")
        a = self.add_node(key_a)
        b = self.add_node(key_b)
        if a == b:
            return
        self.adjacency[a].append((b, float(weight)))
        self.adjacency[b].append((a, float(weight)))

    def node_id(self, key) -> int:
        node_id = self._ids.get(key)
        if node_id is None:
            raise GeodesicError(f"unknown node key {key!r}")
        return node_id

    def key_of(self, node_id: int):
        return self._keys[node_id]

    def position_of(self, node_id: int):
        return self._positions[node_id]

    def degree(self, key) -> int:
        return len(self.adjacency[self.node_id(key)])

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2


def csr_from_adjacency(adj: Adjacency, positions=None) -> CSRGraph:
    """A :class:`~repro.geodesic.csr.CSRGraph` over a list-of-lists
    adjacency (``adj[u]`` iterating ``(v, weight)`` pairs), neighbour
    order kept."""
    indptr = [0]
    indices: list[int] = []
    weights: list[float] = []
    for nbrs in adj:
        for v, w in nbrs:
            indices.append(v)
            weights.append(w)
        indptr.append(len(indices))
    return CSRGraph(indptr, indices, weights, positions=positions)


def csr_adjacency(csr: CSRGraph) -> Adjacency:
    """The list-of-lists adjacency a CSR graph encodes, neighbour
    order kept — the inverse of :func:`csr_from_adjacency`."""
    indptr, indices, weights = csr.lists()
    return [
        list(zip(indices[lo:hi], weights[lo:hi]))
        for lo, hi in zip(indptr, indptr[1:])
    ]


def induced_adjacency(adj: Adjacency, region) -> tuple[Adjacency, dict[int, int]]:
    """The subgraph the boolean node mask ``region`` induces on an
    adjacency list, numbered in node id order with neighbour order
    kept, and the map from each kept node's id to its new one (its
    keys list the kept nodes in order) — the graph a search
    restricted to ``region`` in place must behave as."""
    ids = {u: i for i, u in enumerate(np.flatnonzero(region).tolist())}
    return [[(ids[v], w) for v, w in adj[u] if v in ids] for u in ids], ids


def edge_network_reference(mesh) -> Adjacency:
    """The mesh edge network by one ``append`` per edge and direction:
    ``adj[v]`` lists ``(neighbour, edge length)`` in edge id order —
    the twin of :func:`repro.geodesic.csr.edge_network_csr`."""
    adj: Adjacency = [[] for _ in range(mesh.num_vertices)]
    for eid, (u, w) in enumerate(mesh.edge_vertices):
        length = float(mesh.edge_lengths[eid])
        adj[int(u)].append((int(w), length))
        adj[int(w)].append((int(u), length))
    return adj


def _report_dict(settled: int, relaxations: int) -> None:
    # Batched once per call so the hot loop carries no registry cost;
    # the counter names of the production kernels.
    obs = current()
    obs.count("geodesic.dijkstra.calls")
    obs.count("geodesic.dijkstra.settled", settled)
    obs.count("geodesic.dijkstra.relaxations", relaxations)


@kernel_phase
def dijkstra_reference(
    adj: Adjacency,
    source: int,
    targets: set[int] | None = None,
    max_dist: float | None = None,
) -> dict[int, float]:
    """Lazy-deletion binary-heap Dijkstra over an adjacency list: the
    distance oracle of every search shape (no production kernel
    returns distances alone).

    ``adj[u]`` iterates ``(v, weight)`` pairs with non-negative
    weights.  The search stops once every node of ``targets`` is
    settled (unreachable targets are simply absent) and settles no
    node farther than ``max_dist``.  Returns settled node -> distance.
    """
    if not 0 <= source < len(adj):
        raise GeodesicError(f"source {source} out of range")
    dist: dict[int, float] = {}
    remaining = set(targets) if targets is not None else None
    heap: list[tuple[float, int]] = [(0.0, source)]
    relaxations = 0
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        if max_dist is not None and d > max_dist:
            break
        dist[u] = d
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, w in adj[u]:
            if v not in dist:
                nd = d + w
                if max_dist is None or nd <= max_dist:
                    heapq.heappush(heap, (nd, v))
                    relaxations += 1
    _report_dict(len(dist), relaxations)
    return dist


@kernel_phase
def dijkstra_with_parents_reference(
    adj: Adjacency,
    source: int,
    targets: set[int] | None = None,
    max_dist: float | None = None,
) -> tuple[dict[int, float], dict[int, int]]:
    """:func:`dijkstra_reference` that also returns the shortest-path
    tree (settled node -> predecessor, the source excluded), the twin
    of :func:`repro.geodesic.csr.dijkstra_csr_with_parents` and of
    the one-source case of
    :func:`repro.geodesic.frontier.multi_source_frontier`."""
    if not 0 <= source < len(adj):
        raise GeodesicError(f"source {source} out of range")
    dist: dict[int, float] = {}
    parent: dict[int, int] = {}
    remaining = set(targets) if targets is not None else None
    heap: list[tuple[float, int, int]] = [(0.0, source, -1)]
    relaxations = 0
    while heap:
        d, u, p = heapq.heappop(heap)
        if u in dist:
            continue
        if max_dist is not None and d > max_dist:
            break
        dist[u] = d
        if p >= 0:
            parent[u] = p
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, w in adj[u]:
            if v not in dist:
                nd = d + w
                if max_dist is None or nd <= max_dist:
                    heapq.heappush(heap, (nd, v, u))
                    relaxations += 1
    _report_dict(len(dist), relaxations)
    return dist, parent


def shortest_path_reference(
    adj: Adjacency, source: int, target: int, max_dist: float | None = None
) -> tuple[float, list[int]]:
    """Distance and node sequence of a shortest source→target path.

    Raises :class:`GeodesicError` when the target is unreachable
    (within ``max_dist`` if given).
    """
    dist, parent = dijkstra_with_parents_reference(
        adj, source, targets={target}, max_dist=max_dist
    )
    if target not in dist:
        raise GeodesicError(
            f"no path from {source} to {target}"
            + (f" within distance {max_dist}" if max_dist is not None else "")
        )
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return dist[target], path


def graph_dijkstra_with_parents_reference(
    graph, source, targets=None, max_dist=None, region=None
):
    """:func:`repro.geodesic.csr.graph_dijkstra_with_parents` over
    either graph form: a :class:`KeyedGraphBuilder` runs
    :func:`dijkstra_with_parents_reference` on its adjacency list,
    a compiled graph the production kernels.  A reference run binds
    it where production binds the production search."""
    if isinstance(graph, KeyedGraphBuilder):
        if region is not None:
            raise GeodesicError("a region search needs a compiled graph")
        return dijkstra_with_parents_reference(
            graph.adjacency, source, targets, max_dist
        )
    return graph_dijkstra_with_parents(graph, source, targets, max_dist, region)


def _edge_point_keys(mesh, edge_id: int, steiner_per_edge: int):
    """Keys and 3D positions of all points on an edge, endpoints first."""
    u, w = mesh.edge_vertices[edge_id]
    pu = mesh.vertices[u]
    pw = mesh.vertices[w]
    items = [(vertex_key(u), pu), (vertex_key(w), pw)]
    for j in range(1, steiner_per_edge + 1):
        t = j / (steiner_per_edge + 1)
        items.append((steiner_key(edge_id, j), pu + t * (pw - pu)))
    return items


def _segment_length(pa, pb) -> float:
    """Straight-segment weight, composed as ``(dx² + dy²) + dz²``
    under the radical — the float expression the array builder
    evaluates columnwise."""
    dx = float(pa[0]) - float(pb[0])
    dy = float(pa[1]) - float(pb[1])
    dz = float(pa[2]) - float(pb[2])
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def build_pathnet_reference(
    mesh,
    steiner_per_edge: int = 1,
    faces=None,
    forbidden_faces=None,
) -> KeyedGraphBuilder:
    """The pathnet by a per-face loop: every pair of points sharing a
    face linked by one ``add_edge``.  Unlike the array builder it
    tolerates degenerate faces (repeated points are deduplicated)."""
    forbidden = frozenset(int(f) for f in forbidden_faces or ())
    graph = KeyedGraphBuilder()
    face_ids = range(mesh.num_faces) if faces is None else faces
    for fi in face_ids:
        fi = int(fi)
        if fi in forbidden:
            continue
        points: list[tuple[tuple, np.ndarray]] = []
        seen: set[tuple] = set()
        for slot in range(3):
            edge_id = int(mesh.face_edges[fi, slot])
            for key, pos in _edge_point_keys(mesh, edge_id, steiner_per_edge):
                if key not in seen:
                    seen.add(key)
                    points.append((key, pos))
                    graph.add_node(key, position=pos)
        for (ka, pa), (kb, pb) in combinations(points, 2):
            graph.add_edge(ka, kb, _segment_length(pa, pb))
    return graph


#: The page framing: a record count heading each page, and a length
#: heading each record on it.
_PAGE_COUNT = struct.Struct("<H")
_RECORD_LENGTH = struct.Struct("<H")


def paginate_reference(sizes, page_size: int) -> list[list[int]]:
    """Greedily group records of the given byte sizes into page-sized
    batches of record positions, preserving order (clustering!): one
    decision per record, the twin of the per-page cut of
    :class:`~repro.storage.locator.LocatorStore`.  A page spends
    :data:`_PAGE_COUNT` on its record count and each record
    :data:`_RECORD_LENGTH` on its length."""
    pages: list[list[int]] = []
    current: list[int] = []
    used = _PAGE_COUNT.size
    for position, size in enumerate(sizes):
        need = _RECORD_LENGTH.size + int(size)
        if used + need > page_size and current:
            pages.append(current)
            current = []
            used = _PAGE_COUNT.size
        if _PAGE_COUNT.size + need > page_size:
            raise StorageError(
                f"a single record of {int(size)} bytes cannot fit a "
                f"{page_size}-byte page"
            )
        current.append(position)
        used += need
    if current:
        pages.append(current)
    return pages


class RecordStoreReference:
    """A record store laid out record by record and addressed by
    record id: ``items`` of ``(cluster_key, record_id, size)`` sorted
    by key (ties in input order), cut by :func:`paginate_reference`
    and allocated on ``pages`` page by page, each page as long as its
    framed records — the twin of
    :class:`~repro.storage.locator.LocatorStore`: page ids, lengths
    and :attr:`row_pages` must equal the production store's."""

    def __init__(self, items, pages: PageManager, page_class: str):
        items = list(items)
        order = sorted(range(len(items)), key=lambda i: items[i][0])
        self.page_ids: list[int] = []
        self.row_pages = np.empty(len(items), dtype=np.int64)
        self._slots: dict = {}
        for slot, batch in enumerate(
            paginate_reference([items[i][2] for i in order], pages.page_size)
        ):
            rows = [order[position] for position in batch]
            length = _PAGE_COUNT.size + sum(
                _RECORD_LENGTH.size + items[row][2] for row in rows
            )
            page_id = pages.allocate(length, page_class=page_class)
            self.page_ids.append(page_id)
            for row in rows:
                record_id = items[row][1]
                if record_id in self._slots:
                    raise StorageError(f"duplicate record id {record_id!r}")
                self._slots[record_id] = slot
                self.row_pages[row] = page_id
        self._pages = pages

    def page_slot(self, record_id) -> int:
        """The index, among this store's pages, of a record's page."""
        slot = self._slots.get(record_id)
        if slot is None:
            raise StorageError(f"unknown record id {record_id!r}")
        return slot

    def page_of(self, record_id) -> int:
        """Page id holding a record."""
        return self.page_ids[self.page_slot(record_id)]


def touch_records_reference(store, ref_store, record_ids) -> int:
    """Record-id page charging on a
    :class:`~repro.storage.locator.LocatorStore`: every page holding
    one of the records, read one page at a time in ascending page
    order — the twin of one run of
    :meth:`~repro.storage.locator.LocatorStore.touch_pages`.  Record
    ids resolve through ``ref_store``, the by-record layout
    (:class:`RecordStoreReference`) of the same records, whose k-th
    page is ``store``'s k-th page.  Returns the number of distinct
    pages."""
    page_ids = store.page_ids
    needed = {page_ids[ref_store.page_slot(rid)] for rid in record_ids}
    for page_id in sorted(needed):
        store._pages.read(page_id)
    return len(needed)


def _encode_node_reference(node) -> bytes:
    head = struct.pack(
        "<qqqd3dH",
        node.node_id,
        node.rep,
        node.birth_step,
        node.error,
        *[float(c) for c in node.position],
        len(node.records),
    )
    body = b"".join(struct.pack("<qd", nbr, d) for nbr, d in node.records)
    return head + body


def _encode_face_reference(mesh, fi: int) -> bytes:
    pts = mesh.face_points(fi)
    return struct.pack(
        "<q3q9d",
        fi,
        *[int(v) for v in mesh.faces[fi]],
        *[float(c) for c in pts.ravel()],
    )


def dmtm_attach_reference(
    dmtm, pages: PageManager
) -> tuple[RecordStoreReference, RecordStoreReference]:
    """The by-record DMTM attach: one ``(z-order key, id, size)`` item
    per node and per face, each key from
    :func:`~repro.spatial.zorder.zorder_key_normalized` (a face's at
    its ``mean`` centroid) and each size the length of the record
    packed field by field, laid out on ``pages`` as two id-addressed
    stores ``(nodes, faces)`` — the twin of
    :meth:`repro.multires.dmtm.DMTM.attach_storage`."""
    mesh = dmtm.mesh
    world = mesh.xy_bounds()
    node_items = []
    for node in dmtm.ddm.history.nodes:
        key = zorder_key_normalized(
            float(node.position[0]), float(node.position[1]), world
        )
        node_items.append((key, node.node_id, len(_encode_node_reference(node))))
    node_store = RecordStoreReference(node_items, pages, page_class=PAGE_CLASS_DMTM)
    face_items = []
    for fi in range(mesh.num_faces):
        centroid = mesh.face_points(fi).mean(axis=0)
        key = zorder_key_normalized(float(centroid[0]), float(centroid[1]), world)
        face_items.append((key, fi, len(_encode_face_reference(mesh, fi))))
    face_store = RecordStoreReference(face_items, pages, page_class=PAGE_CLASS_DMTM)
    return node_store, face_store


def dmtm_attach_mismatches(dmtm, pages, ref_pages) -> list[str]:
    """What differs between ``dmtm`` attached to ``pages`` and
    :func:`dmtm_attach_reference` on ``ref_pages`` (both fresh
    managers of one page size): the node and face page arrays, and
    every page's length and class.  Empty when the layouts are
    identical."""
    nodes, faces = dmtm_attach_reference(dmtm, ref_pages)
    out = []
    if dmtm._node_pages.tolist() != nodes.row_pages.tolist():
        out.append("node pages")
    if dmtm._face_pages.tolist() != faces.row_pages.tolist():
        out.append("face pages")
    return out + _page_mismatches(pages, ref_pages)


#: By-record attaches of production DMTMs, one per instance, each on a
#: private page manager of the production page size.
_dmtm_references: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def dmtm_reference_stores(
    dmtm,
) -> tuple[RecordStoreReference, RecordStoreReference]:
    """``(nodes, faces)`` of :func:`dmtm_attach_reference` for an
    attached ``dmtm`` (built once per instance): the record-id stores
    through which the touch twins resolve ids.  Each store's k-th
    page is the production store's k-th page."""
    page_size = dmtm._node_store._pages.page_size
    stores = _dmtm_references.get(dmtm)
    if stores is None or stores[0]._pages.page_size != page_size:
        stores = dmtm_attach_reference(dmtm, PageManager(page_size=page_size))
        _dmtm_references[dmtm] = stores
    return stores


def dmtm_touch_nodes_reference(dmtm, node_ids) -> None:
    """Charge DMTM node pages by record id (the node id)."""
    if dmtm._node_store is not None:
        nodes, _faces = dmtm_reference_stores(dmtm)
        touch_records_reference(
            dmtm._node_store, nodes, (int(n) for n in node_ids)
        )


def dmtm_touch_faces_reference(dmtm, face_ids) -> None:
    """Charge DMTM face pages by record id (the face id)."""
    if dmtm._face_store is not None:
        _nodes, faces = dmtm_reference_stores(dmtm)
        touch_records_reference(
            dmtm._face_store, faces, (int(fi) for fi in face_ids)
        )


def rows_meeting_boxes_reference(rows: np.ndarray, boxes) -> np.ndarray:
    """Mask of the ``[lo_x, lo_y, hi_x, hi_y]`` rows meeting any box,
    one pass over all rows per box."""
    mask = np.zeros(rows.shape[0], dtype=bool)
    for box in boxes:
        mask |= (
            (rows[:, 0] <= box.hi[0])
            & (rows[:, 2] >= box.lo[0])
            & (rows[:, 1] <= box.hi[1])
            & (rows[:, 3] >= box.lo[1])
        )
    return mask


def dmtm_cut_nodes_reference(ddm, step: int, roi=None) -> list[int]:
    """Cut node ids by a walk over the collapse nodes: alive at
    ``step`` and, with an ``roi``, with a descendant MBR that
    intersects one of its boxes."""
    roi = region_boxes(roi)
    return [
        node.node_id
        for node in ddm.history.nodes
        if node.alive_at(step)
        and (roi is None or any(ddm.node_mbr(node.node_id).intersects(b) for b in roi))
    ]


def dmtm_faces_reference(dmtm, roi=None) -> np.ndarray:
    """Pathnet face ids for ``roi``: the sorted union of
    :meth:`~repro.terrain.mesh.TriangleMesh.submesh_faces` per box."""
    roi = region_boxes(roi)
    if roi is None:
        return np.arange(dmtm.mesh.num_faces)
    keep: set[int] = set()
    for box in roi:
        keep.update(int(fi) for fi in dmtm.mesh.submesh_faces(box))
    return np.asarray(sorted(keep), dtype=np.int64)


def dmtm_cut_reference(dmtm, resolution: float, roi=None, charge_io: bool = True):
    """Cut-level network by one ``add_edge`` per
    :meth:`~repro.multires.ddm.DistanceDirectMesh.cut_edges` edge
    among the nodes :func:`dmtm_cut_nodes_reference` selects,
    charging pages by record id.  The view carries the keyed graph;
    search it with :func:`dmtm_upper_bound_cut_reference`."""
    step = dmtm.ddm.step_for_fraction(resolution)
    cut = dmtm_cut_nodes_reference(dmtm.ddm, step, roi)
    if charge_io:
        dmtm_touch_nodes_reference(dmtm, cut)
    graph = KeyedGraphBuilder()
    for node_id in cut:
        graph.add_node(("n", node_id), position=dmtm.ddm.node_position(node_id))
    for u, w, d in dmtm.ddm.cut_edges(cut):
        graph.add_edge(("n", u), ("n", w), d)
    return NetworkView(
        resolution=resolution, records_used=len(cut), step=step, graph=graph
    )


def dmtm_cut_per_region(dmtm, resolution: float, roi=None, charge_io: bool = True):
    """Cut-level network built for one region with array operations:
    the region's node ids, their recorded edges (see
    :meth:`~repro.multires.ddm.DistanceDirectMesh.cut_edge_arrays`),
    a fresh CSR over them and a
    :class:`~repro.geodesic.graph.KeyedGraph` with one key per node.
    Production built this per refined corridor before it searched the
    compiled cut in place; the kernels bench keeps it as that
    comparison's baseline."""
    ddm = dmtm.ddm
    step = ddm.step_for_fraction(resolution)
    alive = (ddm._birth <= step) & (ddm._death > step)
    roi = region_boxes(roi)
    if roi is not None:
        alive &= rows_meeting_boxes_reference(ddm._mbr_rows, roi)
    cut_ids = np.flatnonzero(alive)
    if charge_io:
        dmtm._touch_nodes(cut_ids)
    u, w, d = ddm.cut_edge_arrays(cut_ids)
    nnodes = int(cut_ids.size)
    lu = np.searchsorted(cut_ids, u)
    lw = np.searchsorted(cut_ids, w)
    src_dir = np.concatenate([lu, lw])
    dst_dir = np.concatenate([lw, lu])
    w_dir = np.concatenate([d, d])
    order = np.argsort(src_dir, kind="stable")
    indptr = np.zeros(nnodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src_dir, minlength=nnodes), out=indptr[1:])
    positions = ddm.node_positions()[cut_ids]
    csr = CSRGraph(indptr, dst_dir[order], w_dir[order], positions=positions)
    graph = KeyedGraph([("n", int(i)) for i in cut_ids], csr)
    return NetworkView(
        resolution=resolution, records_used=nnodes, step=step, graph=graph
    )


def upper_bound_bits(result):
    """A DMTM upper bound as ``(value bytes, path keys, resolution)``,
    None when unreachable — what the cut identity checks compare."""
    if result is None:
        return None
    return np.float64(result.value).tobytes(), result.path_keys, result.resolution


def _keyed_path(graph, parent, sid: int, tid: int) -> list:
    path = [tid]
    while path[-1] != sid:
        path.append(parent[path[-1]])
    path.reverse()
    return [graph.key_of(n) for n in path]


def dmtm_upper_bound_cut_reference(dmtm, vertex_a: int, vertex_b: int, network):
    """:meth:`DMTM._upper_bound_cut` over a keyed cut network
    (:func:`dmtm_cut_reference`, :func:`dmtm_cut_per_region`): the
    ancestors' ``("n", id)`` keys looked up in the graph and one
    search with parents (:func:`graph_dijkstra_with_parents_reference`:
    the dict kernel on a builder graph, production's on a compiled
    one)."""
    step = network.step
    anc_a, off_a = dmtm.ddm.ancestor(vertex_a, step)
    anc_b, off_b = dmtm.ddm.ancestor(vertex_b, step)
    key_a = ("n", anc_a)
    key_b = ("n", anc_b)
    graph = network.graph
    if key_a not in graph or key_b not in graph:
        return None
    if anc_a == anc_b:
        return UpperBoundResult(
            value=off_a + off_b, path_keys=[key_a], resolution=network.resolution
        )
    sid = graph.node_id(key_a)
    tid = graph.node_id(key_b)
    dist, parent = graph_dijkstra_with_parents_reference(graph, sid, targets={tid})
    if tid not in dist:
        return None
    return UpperBoundResult(
        value=off_a + dist[tid] + off_b,
        path_keys=_keyed_path(graph, parent, sid, tid),
        resolution=network.resolution,
    )


def dmtm_upper_bounds_from_cut_reference(
    dmtm, source_vertex: int, target_vertices, network
) -> dict:
    """:meth:`DMTM._upper_bounds_from_cut` over a keyed cut network:
    one search from the source's ancestor toward every target's, each
    value composed as ``(off_s + off_t) + d``."""
    step = network.step
    graph = network.graph
    anc_s, off_s = dmtm.ddm.ancestor(source_vertex, step)
    key_s = ("n", anc_s)
    info = {}
    for v in target_vertices:
        anc_v, off_v = dmtm.ddm.ancestor(v, step)
        info[v] = (("n", anc_v), off_s + off_v)
    if key_s not in graph:
        return {v: None for v in target_vertices}
    sid = graph.node_id(key_s)
    target_ids = {graph.node_id(key) for key, _extra in info.values() if key in graph}
    dist, parent = graph_dijkstra_with_parents_reference(
        graph, sid, targets=target_ids
    )
    results: dict = {}
    for v in target_vertices:
        key_v, extra = info[v]
        if key_v not in graph:
            results[v] = None
            continue
        tid = graph.node_id(key_v)
        if tid == sid:
            results[v] = UpperBoundResult(
                value=extra, path_keys=[key_v], resolution=network.resolution
            )
        elif tid not in dist:
            results[v] = None
        else:
            results[v] = UpperBoundResult(
                value=extra + dist[tid],
                path_keys=_keyed_path(graph, parent, sid, tid),
                resolution=network.resolution,
            )
    return results


def dmtm_upper_bounds_multi_reference(dmtm, anchors, target_vertices, network):
    """:meth:`DMTM.upper_bounds_multi` as one single-source search per
    anchor, keeping the strict minimum (first-listed anchor wins
    ties)."""
    best: dict[int, tuple[float, list]] = {}
    for anchor_vertex, offset in anchors:
        results = dmtm.upper_bounds_from(anchor_vertex, target_vertices, network)
        for vertex, result in results.items():
            if result is None:
                continue
            value = offset + result.value
            if vertex not in best or value < best[vertex][0]:
                best[vertex] = (value, result.path_keys)
    return best


#: One chunk record as the object build packs it: axis, plane index,
#: plane value, resolution in per mille, first and last segment, then
#: the MBR's lo and hi corners — ``CHUNK_RECORD_BYTES`` long.
_CHUNK_STRUCT = struct.Struct("<BIdHII6d")


@dataclass(frozen=True)
class SdnChunk:
    """One SDN node of the object build: a run of crossing-line
    segments with their joint 3D MBR."""

    axis: int
    plane_index: int
    plane_value: float
    resolution: float
    first: int
    last: int
    mbr: BoundingBox  # 3D

    @property
    def key(self) -> tuple:
        return ("c", self.axis, self.plane_index, self.first, self.last)

    def encode(self) -> bytes:
        return _CHUNK_STRUCT.pack(
            self.axis,
            self.plane_index,
            self.plane_value,
            int(round(self.resolution * 1000)),
            self.first,
            self.last,
            *self.mbr.lo,
            *self.mbr.hi,
        )

    @classmethod
    def decode(cls, blob: bytes) -> "SdnChunk":
        axis, plane_index, plane_value, res_pm, first, last, *coords = (
            _CHUNK_STRUCT.unpack(blob)
        )
        return cls(
            axis=axis,
            plane_index=plane_index,
            plane_value=plane_value,
            resolution=res_pm / 1000.0,
            first=first,
            last=last,
            mbr=BoundingBox(tuple(coords[:3]), tuple(coords[3:])),
        )


def build_sdn_chunks(
    line: Polyline,
    axis: int,
    plane_index: int,
    plane_value: float,
    resolution: float,
) -> list[SdnChunk]:
    """Chunk one crossing line at the given resolution, one object per
    chunk (:func:`repro.geometry.polyline.simplify_with_enclosure`)."""
    return [
        SdnChunk(
            axis=axis,
            plane_index=plane_index,
            plane_value=plane_value,
            resolution=resolution,
            first=c.first,
            last=c.last,
            mbr=c.mbr,
        )
        for c in simplify_with_enclosure(line, resolution)
    ]


class MSDNReference:
    """The object build of an MSDN: one :class:`SdnChunk` per chunk of
    every (axis, resolution) family, by :func:`build_sdn_chunks` over
    the crossing lines, flattened into the family arrays the array
    build must equal; :meth:`attach_storage` lays out the chunk
    records, sized by their encoding, through a record-id
    :class:`RecordStoreReference`.

    ``chunks[(axis, res)]`` lists each plane's chunks; ``chunk_xy``
    the per-plane xy-MBR arrays; ``family_xy``, ``boxes3d`` and
    ``plane_offsets`` the flattened family arrays.
    """

    def __init__(self, planes: dict, lines: dict, resolutions):
        self.planes = planes
        self.resolutions = tuple(sorted(resolutions))
        self.chunks: dict[tuple[int, float], list[list[SdnChunk]]] = {}
        self.chunk_xy: dict[tuple[int, float], list[np.ndarray]] = {}
        self.family_xy: dict[tuple[int, float], np.ndarray] = {}
        self.boxes3d: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}
        self.plane_offsets: dict[tuple[int, float], np.ndarray] = {}
        for axis in (0, 1):
            for res in self.resolutions:
                key = (axis, res)
                per_plane = [
                    build_sdn_chunks(line, axis, idx, float(planes[axis][idx]), res)
                    for idx, line in enumerate(lines[axis])
                ]
                offsets = np.zeros(len(per_plane) + 1, dtype=np.int64)
                np.cumsum([len(chunks) for chunks in per_plane], out=offsets[1:])
                flat = [c for chunks in per_plane for c in chunks]
                xy = np.array(
                    [c.mbr.lo[:2] + c.mbr.hi[:2] for c in flat], dtype=float
                ).reshape(-1, 4)
                self.chunks[key] = per_plane
                self.plane_offsets[key] = offsets
                self.family_xy[key] = xy
                self.chunk_xy[key] = [
                    xy[start:stop] for start, stop in zip(offsets[:-1], offsets[1:])
                ]
                self.boxes3d[key] = (
                    np.array([c.mbr.lo for c in flat], dtype=float).reshape(-1, 3),
                    np.array([c.mbr.hi for c in flat], dtype=float).reshape(-1, 3),
                )
        self.store: RecordStoreReference | None = None

    @classmethod
    def of(cls, msdn) -> "MSDNReference":
        """The object build over a production MSDN's crossing lines."""
        return cls(msdn._planes, msdn._lines, msdn.resolutions)

    @classmethod
    def build(
        cls,
        mesh,
        spacing: float | None = None,
        resolutions=DEFAULT_RESOLUTIONS,
        supersample: int = 8,
        adaptive_planes: float = 0.0,
    ) -> "MSDNReference":
        """The whole object build from a mesh, crossing lines included
        (the twin of ``MSDN(mesh, ...)``)."""
        if spacing is None:
            spacing = float(np.mean(mesh.edge_lengths))
        planes, lines = {}, {}
        for axis in (0, 1):
            planes[axis], lines[axis] = crossing_lines(
                mesh, spacing, axis, supersample, float(adaptive_planes)
            )
        return cls(planes, lines, resolutions)

    def record_items(self) -> list:
        """``(cluster_key, record_id, size)`` per chunk, in generation
        order, each size the length of the encoded chunk."""
        items = []
        for (axis, res), per_plane in self.chunks.items():
            for chunks in per_plane:
                for chunk in chunks:
                    cluster = (axis, round(res * 1000), chunk.plane_index, chunk.first)
                    items.append(
                        (cluster, ("chunk",) + cluster, len(chunk.encode()))
                    )
        return items

    def attach_storage(self, pages: PageManager) -> RecordStoreReference:
        """Lay out every chunk record by record id."""
        self.store = RecordStoreReference(
            self.record_items(), pages, page_class=PAGE_CLASS_MSDN
        )
        return self.store

    def family_pages(self, axis: int, resolution: float) -> np.ndarray:
        """Each chunk's page id by record id, row-aligned with the
        family arrays."""
        rk = round(resolution * 1000)
        return np.array(
            [
                self.store.page_of(("chunk", c.axis, rk, c.plane_index, c.first))
                for layer in self.chunks[(axis, resolution)]
                for c in layer
            ],
            dtype=np.int64,
        )

    def stats(self, spacing: float) -> dict:
        return {
            "spacing": spacing,
            "planes_x": int(len(self.planes[0])),
            "planes_y": int(len(self.planes[1])),
            "chunks": {
                f"axis{axis}@r{res}": sum(len(layer) for layer in per_plane)
                for (axis, res), per_plane in self.chunks.items()
            },
        }


#: Object builds of production MSDNs, one per instance, with the
#: record-id store of each on a private page manager.
_msdn_references: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def msdn_reference(msdn) -> MSDNReference:
    """The object build over ``msdn``'s crossing lines (built once per
    instance).  When ``msdn`` has storage attached, the build's
    record-id store is laid out on a private page manager of the same
    page size, so its k-th page is the production store's k-th page
    (:func:`_touch_chunks` charges through that correspondence)."""
    ref = _msdn_references.get(msdn)
    if ref is None:
        ref = _msdn_references[msdn] = MSDNReference.of(msdn)
    store = msdn._store
    if store is not None and (
        ref.store is None or ref.store._pages.page_size != store._pages.page_size
    ):
        ref.attach_storage(PageManager(page_size=store._pages.page_size))
    return ref


def _layer_boxes(layer: list[SdnChunk]) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([c.mbr.lo for c in layer], dtype=float)
    hi = np.array([c.mbr.hi for c in layer], dtype=float)
    return lo, hi


def _boxes_to_boxes(
    lo1: np.ndarray, hi1: np.ndarray, lo2: np.ndarray, hi2: np.ndarray
) -> np.ndarray:
    """(m1, m2) matrix of min distances between two box families."""
    gap = np.maximum(lo2[np.newaxis, :, :] - hi1[:, np.newaxis, :], 0.0)
    gap = np.maximum(gap, lo1[:, np.newaxis, :] - hi2[np.newaxis, :, :])
    return np.sqrt(np.sum(gap * gap, axis=2))


def lower_bound_via_planes_broadcast(
    point_a,
    point_b,
    layer_boxes: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[float, list[int]]:
    """:func:`repro.msdn.sdn.lower_bound_via_planes_arrays` with each
    hop one broadcast ``(m1, m2)`` matrix (:func:`_boxes_to_boxes`),
    on the same ``(lo, hi)`` row-array input: the oracle for the
    per-coordinate hop kernel.  Returns ``(bound, row_per_layer)``."""
    pa = np.asarray(point_a, dtype=float)
    pb = np.asarray(point_b, dtype=float)
    euclid = float(np.linalg.norm(pa - pb))
    if not layer_boxes:
        return euclid, []
    if any(lo.shape[0] == 0 for lo, _ in layer_boxes):
        raise GeometryError("empty chunk layer; caller must drop empty planes")

    lo0, hi0 = layer_boxes[0]
    dist = _point_to_boxes(pa, lo0, hi0)
    choices: list[np.ndarray] = []
    for (lo_u, hi_u), (lo_l, hi_l) in zip(layer_boxes, layer_boxes[1:]):
        hop = _boxes_to_boxes(lo_u, hi_u, lo_l, hi_l)
        total = dist[:, np.newaxis] + hop
        picks = np.argmin(total, axis=0)
        choices.append(picks)
        dist = total[picks, np.arange(hop.shape[1])]
    lo_n, hi_n = layer_boxes[-1]
    final = dist + _point_to_boxes(pb, lo_n, hi_n)
    best = int(np.argmin(final))
    bound = float(final[best])

    indices = [best]
    for picks in reversed(choices):
        indices.append(int(picks[indices[-1]]))
    indices.reverse()
    return max(bound, euclid), indices


def lower_bound_via_planes(
    point_a,
    point_b,
    chunk_layers: list[list[SdnChunk]],
) -> tuple[float, list[tuple]]:
    """:func:`lower_bound_via_planes_broadcast` over chunk objects.

    ``chunk_layers`` holds the (non-empty) chunk lists of the selected
    planes, nearest ``a`` first.  Returns ``(bound, path_chunk_keys)``
    with the bound clamped below by the straight-line distance.
    """
    value, indices = lower_bound_via_planes_broadcast(
        point_a, point_b, [_layer_boxes(layer) for layer in chunk_layers]
    )
    return value, [layer[row].key for layer, row in zip(chunk_layers, indices)]


def _touch_chunks(msdn, chunks, resolution: float) -> None:
    """Record-id page charging for a list of chunks: each distinct
    page of the object build's store holding one of them, read one
    page at a time in ascending order from ``msdn``'s own pages (the
    build's k-th page is the production store's k-th page)."""
    if msdn._store is None or not chunks:
        return
    store = msdn_reference(msdn).store
    production = msdn._store.page_ids
    rk = round(resolution * 1000)
    needed = {
        production[store.page_slot(("chunk", c.axis, rk, c.plane_index, c.first))]
        for c in chunks
    }
    for page_id in sorted(needed):
        msdn._store._pages.read(page_id)


def planes_between_reference(msdn, axis: int, lo: float, hi: float, stride: int):
    """:meth:`MSDN._planes_between` as a mask over every plane value:
    the planes strictly between ``lo`` and ``hi``, thinned by
    ``stride``, the twin of its bisection over the ascending plane
    values."""
    planes = msdn._planes[axis]
    inside = np.nonzero((planes > lo) & (planes < hi))[0]
    return inside[:: max(1, stride)]


def _selection_reference(msdn, pa, pb, resolution: float) -> tuple:
    """:meth:`MSDN._selection` through :func:`planes_between_reference`:
    ``(axis, pa, pb, planes)``, the endpoints ordered along the plane
    axis."""
    axis = msdn.choose_axis(pa, pb)
    lo = min(pa[axis], pb[axis])
    hi = max(pa[axis], pb[axis])
    if pa[axis] > pb[axis]:
        pa, pb = pb, pa
    planes = planes_between_reference(
        msdn, axis, lo, hi, msdn.plane_stride(resolution)
    )
    return axis, pa, pb, planes


def msdn_layers_reference(
    msdn, point_a, point_b, resolution: float, roi=None, corridor=None
) -> tuple:
    """The chunk layers :meth:`MSDN.lower_bound` hands its DP, by
    walking chunk objects: each selected plane's chunks inside ``roi``
    and ``corridor`` (boxes, or their corner array), empty layers
    dropped.  Returns ``(pa, pb, resolution, layers)`` with the
    endpoints ordered along the plane axis and the resolution
    snapped."""
    pa = np.asarray(point_a, dtype=float)
    pb = np.asarray(point_b, dtype=float)
    resolution = msdn.nearest_resolution(resolution)
    roi = region_boxes(roi)
    corridor = region_boxes(
        corner_boxes(corridor) if isinstance(corridor, np.ndarray) else corridor
    )
    axis, pa, pb, planes = _selection_reference(msdn, pa, pb, resolution)
    ref = msdn_reference(msdn)
    per_plane = ref.chunks[(axis, resolution)]
    bounds = ref.chunk_xy[(axis, resolution)]
    layers = []
    for pi in planes:
        layer, xy = per_plane[pi], bounds[pi]
        if roi is None and corridor is None:
            keep = layer
        else:
            mask = np.ones(xy.shape[0], dtype=bool)
            if roi is not None:
                mask &= rows_meeting_boxes_reference(xy, roi)
            if corridor is not None:
                mask &= rows_meeting_boxes_reference(xy, corridor)
            keep = [layer[j] for j in np.nonzero(mask)[0]]
        if keep:
            layers.append(keep)
    return pa, pb, resolution, layers


def msdn_lower_bound_reference(
    msdn,
    point_a,
    point_b,
    resolution: float,
    roi=None,
    corridor=None,
    charge_io: bool = True,
) -> LowerBoundResult:
    """:meth:`MSDN.lower_bound` by walking chunk objects: filter each
    selected plane's chunks (:func:`msdn_layers_reference`), charge
    their pages by record id and run the object-input DP."""
    pa, pb, resolution, layers = msdn_layers_reference(
        msdn, point_a, point_b, resolution, roi, corridor
    )
    if charge_io:
        for layer in layers:
            _touch_chunks(msdn, layer, resolution)
    value, path_keys = lower_bound_via_planes(pa, pb, layers)
    return LowerBoundResult(
        value=value,
        path_keys=path_keys,
        resolution=resolution,
        chunks_used=sum(len(layer) for layer in layers),
    )


def msdn_screen_interval_reference(
    msdn, point_a, point_b, resolution: float, threshold: float, roi=None, corridor=None
) -> tuple[float, float]:
    """:meth:`MSDN.corridor_interval` by its definition: the exact
    interval ``(V, V)`` of the object-walk corridor bound
    (:func:`msdn_lower_bound_reference`, no pages charged), which
    decides every threshold."""
    value = msdn_lower_bound_reference(
        msdn, point_a, point_b, resolution, roi, corridor, charge_io=False
    ).value
    return value, value


def msdn_screen_reference(
    msdn, point_a, point_b, resolution: float, threshold: float, roi=None, corridor=None
) -> bool:
    """:meth:`MSDN.corridor_reaches` by its definition: whether the
    object-walk corridor bound (:func:`msdn_lower_bound_reference`,
    no pages charged) reaches ``threshold``."""
    value, _value = msdn_screen_interval_reference(
        msdn, point_a, point_b, resolution, threshold, roi, corridor
    )
    return value >= threshold


def witness_chain(point_a, point_b, axis: int, layer_boxes) -> list[int]:
    """The masked screen's witness chain through ``layer_boxes``: a
    row index per layer, for :func:`chain_upper_bound` to price.

    ``point_a`` / ``point_b`` and the layers are ordered as for
    :func:`repro.msdn.sdn.lower_bound_via_planes_arrays`, and ``axis``
    is the plane axis.  In each layer the chain takes the box nearest,
    along the other horizontal axis, to where the straight segment
    a–b crosses that layer's plane (the first box's coordinate on
    ``axis``); where the crossing lies inside several boxes, the one
    it lies deepest in.  Ties go to the lowest row.
    """
    other = 1 - axis
    a_axis, a_other = float(point_a[axis]), float(point_a[other])
    b_axis, b_other = float(point_b[axis]), float(point_b[other])
    span = b_axis - a_axis
    picks = []
    for lo, hi in layer_boxes:
        t = (float(lo[0, axis]) - a_axis) / span if span else 0.0
        cross = a_other + t * (b_other - a_other)
        miss = np.maximum(lo[:, other] - cross, cross - hi[:, other])
        picks.append(int(np.argmin(miss)))
    return picks


def chain_upper_bound(point_a, point_b, axis: int, layer_boxes) -> float:
    """The length of the :func:`witness_chain` through ``layer_boxes``,
    priced by :func:`chain_length_arrays`: never below the bound
    :func:`repro.msdn.sdn.lower_bound_via_planes_arrays` returns for
    the same input, and equal to it when every layer holds one box."""
    if any(lo.shape[0] == 0 for lo, _ in layer_boxes):
        raise GeometryError("empty chunk layer; caller must drop empty planes")
    picks = witness_chain(point_a, point_b, axis, layer_boxes)
    lo = np.array([box_lo[row] for (box_lo, _), row in zip(layer_boxes, picks)])
    hi = np.array([box_hi[row] for (_, box_hi), row in zip(layer_boxes, picks)])
    return chain_length_arrays(
        point_a, point_b, lo.reshape(-1, 3), hi.reshape(-1, 3)
    )


def chain_length_arrays(point_a, point_b, lo: np.ndarray, hi: np.ndarray) -> float:
    """:func:`repro.msdn.sdn.chain_length` on arrays, with the DP's
    own kernels: the end distances by one
    :func:`~repro.msdn.sdn._point_to_boxes` call, the hops by one
    :func:`~repro.msdn.sdn._box_distances` call, added to the running
    prefix in layer order, then clamped below by the straight line
    (``np.linalg.norm``, as the DP takes it).  The twin of the
    plain-float price, which must equal it to the bit."""
    pa = np.asarray(point_a, dtype=float)
    pb = np.asarray(point_b, dtype=float)
    euclid = float(np.linalg.norm(pa - pb))
    count = lo.shape[0]
    if count == 0:
        return euclid
    ends = [0, count - 1]
    first, last = _point_to_boxes(np.stack((pa, pb)), lo[ends], hi[ends]).tolist()
    total = first
    if count > 1:
        hops = _box_distances(lo[:-1].T, hi[:-1].T, lo[1:].T, hi[1:].T, count - 1)
        for hop in hops.tolist():
            total += hop
    return max(total + last, euclid)


def crossing_rows_reference(family, planes, axis: int, pa, pb) -> list[int]:
    """:meth:`repro.msdn.sdn.SdnFamily.crossing_rows` as one argmin
    over every row of each plane: the row whose miss ``max(lo - cross,
    cross - hi)`` along the other horizontal axis is least, ties to
    the lowest row, the twin of its bisection."""
    other = 1 - axis
    a_axis, a_other = float(pa[axis]), float(pa[other])
    span = float(pb[axis]) - a_axis
    rise = float(pb[other]) - a_other
    lo_axis = family.xy[:, axis]
    lo_other = family.xy[:, other]
    hi_other = family.xy[:, other + 2]
    rows = []
    for start, stop in zip(
        family.offsets[planes].tolist(), family.offsets[planes + 1].tolist()
    ):
        cross = a_other + (float(lo_axis[start]) - a_axis) / span * rise
        miss = np.maximum(lo_other[start:stop] - cross, cross - hi_other[start:stop])
        rows.append(start + int(np.argmin(miss)))
    return rows


def msdn_screen_arrays(
    msdn, point_a, point_b, resolution: float, threshold: float, roi=None, corridor=None
) -> tuple[float, float]:
    """:meth:`MSDN.corridor_interval` as it priced its witness with
    arrays: the crossing rows by one argmin per plane
    (:func:`crossing_rows_reference`), the masks on them by
    :func:`~repro.geometry.primitives.rows_meeting_boxes`, the chain by
    :func:`chain_length_arrays`, and no spine chain: a screen the
    crossing chain cannot decide masks and runs the DP.  The same
    intervals but for those the spine decides, where it gives ``(V,
    V)``; the bench baseline of the plain-float screen.  It counts
    nothing."""
    pa = np.asarray(point_a, dtype=float)
    pb = np.asarray(point_b, dtype=float)
    euclid = float(np.linalg.norm(pa - pb))
    if euclid >= threshold:
        return euclid, math.inf
    resolution = msdn.nearest_resolution(resolution)
    roi = region_boxes(roi)
    corridor = corridor_region(corridor)
    axis, pa, pb, planes = _selection_reference(msdn, pa, pb, resolution)
    family = msdn._families[(axis, resolution)]
    rows = crossing_rows_reference(family, planes, axis, pa, pb)
    xy = family.xy[rows]
    if (roi is None or rows_meeting_boxes(xy, roi).all()) and (
        corridor is None or rows_meeting_boxes(xy, corridor).all()
    ):
        chain = chain_length_arrays(pa, pb, family.lo[rows], family.hi[rows])
        if chain < threshold:
            return euclid, chain
    layer_boxes, _rows, _runs = msdn._masked_layers(family, planes, roi, corridor)
    if not layer_boxes:
        return euclid, euclid
    value, _picks = lower_bound_via_planes_arrays(pa, pb, layer_boxes)
    return value, value


def spine_chain_reference(
    msdn, point_a, point_b, resolution: float, roi=None, corridor=None
) -> float | None:
    """The price of the screen's spine chain
    (:meth:`~repro.msdn.msdn.MSDN._spine_rows`) by walking chunk
    objects: on each layer :func:`msdn_layers_reference` keeps, the
    chunk whose miss ``max(lo - at, at - hi)`` along the other
    horizontal axis is least (one argmin, ties to the first), where
    ``at`` is the corridor's spine interpolated at the layer's first
    chunk, priced by :func:`chain_length_arrays`.  None when no layer
    is kept or there is no corridor."""
    if corridor is None:
        return None
    pa, pb, resolution, layers = msdn_layers_reference(
        msdn, point_a, point_b, resolution, roi, corridor
    )
    if not layers:
        return None
    axis = msdn.choose_axis(pa, pb)
    other = 1 - axis
    corners = box_corners(corridor_region(corridor)).tolist()
    spine = sorted(
        ((c[axis] + c[axis + 2]) * 0.5, (c[other] + c[other + 2]) * 0.5)
        for c in corners
    )
    picks = []
    for layer in layers:
        lo, hi = _layer_boxes(layer)
        x = float(lo[0, axis])
        before = [i for i, (x_i, _o) in enumerate(spine) if x_i < x]
        if not before:
            at = spine[0][1]
        elif len(before) == len(spine):
            at = spine[-1][1]
        else:
            (x0, o0), (x1, o1) = spine[before[-1]], spine[before[-1] + 1]
            at = o0 + (x - x0) / (x1 - x0) * (o1 - o0)
        miss = np.maximum(lo[:, other] - at, at - hi[:, other])
        row = int(np.argmin(miss))
        picks.append((lo[row], hi[row]))
    return chain_length_arrays(
        pa, pb, np.array([lo for lo, _ in picks]), np.array([hi for _, hi in picks])
    )


def msdn_screen_masked_witness(
    msdn, point_a, point_b, resolution: float, threshold: float, roi=None, corridor=None
) -> bool:
    """:meth:`MSDN.corridor_reaches` as production decided it before
    it screened crossing rows first: mask every selected plane's rows
    against ``roi`` and ``corridor``, then price the
    :func:`witness_chain` through the masked layers
    (:func:`chain_upper_bound`) and run the DP only when that chain
    reaches ``threshold``.  The bench baseline of the crossing-row
    screen; it counts nothing."""
    pa = np.asarray(point_a, dtype=float)
    pb = np.asarray(point_b, dtype=float)
    if float(np.linalg.norm(pa - pb)) >= threshold:
        return True
    resolution = msdn.nearest_resolution(resolution)
    axis, pa, pb, planes = _selection_reference(msdn, pa, pb, resolution)
    layer_boxes, _rows, _runs = msdn._masked_layers(
        msdn._families[(axis, resolution)],
        planes,
        region_boxes(roi),
        corridor_region(corridor),
    )
    if chain_upper_bound(pa, pb, axis, layer_boxes) < threshold:
        return False
    value, _picks = lower_bound_via_planes_arrays(pa, pb, layer_boxes)
    return value >= threshold


def kanai_suzuki_distances_reference(
    mesh,
    source: int,
    targets,
    tolerance: float = 0.03,
    max_steiner: int = 16,
    corridor_rings: int = 1,
) -> list[float]:
    """:func:`repro.geodesic.kanai_suzuki.kanai_suzuki_distances` as
    the per-pair polish: for each target, its own round-0 search of
    the cached edge network toward that target alone, then the same
    refinement rounds.  The twin of the shared round-0 search."""
    from repro.geodesic import kanai_suzuki as ks

    out = []
    for target in targets:
        if target == source:
            out.append(0.0)
            continue
        if tolerance <= 0.0:
            raise GeodesicError("tolerance must be positive")
        src_key, dst_key = vertex_key(source), vertex_key(target)
        best, keys = ks._route(ks._round0_pathnet(mesh), src_key, dst_key)
        out.append(
            ks._refine(
                mesh, src_key, dst_key, best, keys,
                tolerance, max_steiner, corridor_rings,
            )
        )
    return out


def msdn_touch_region_reference(msdn, resolution: float, roi=None, axes=(0, 1)) -> None:
    """:meth:`MSDN.touch_region` by record id: each plane's chunks
    inside ``roi``, charged plane by plane."""
    resolution = msdn.nearest_resolution(resolution)
    roi = region_boxes(roi)
    ref = msdn_reference(msdn)
    for axis in axes:
        layers = ref.chunks[(axis, resolution)]
        bounds = ref.chunk_xy[(axis, resolution)]
        for layer, xy in zip(layers, bounds):
            if roi is not None:
                mask = rows_meeting_boxes_reference(xy, roi)
                layer = [layer[j] for j in np.nonzero(mask)[0]]
            _touch_chunks(msdn, layer, resolution)


def msdn_corridor_reference(
    msdn, path_keys, resolution: float, thickness: float | None = None
) -> list[BoundingBox]:
    """:meth:`MSDN.corridor_from_path` over the object build: the xy
    MBR of each path key's chunk object, thickened; unknown keys are
    skipped."""
    if thickness is None:
        thickness = 2.0 * msdn.spacing
    resolution = msdn.nearest_resolution(resolution)
    ref = msdn_reference(msdn)
    index = {
        chunk.key: chunk
        for axis in (0, 1)
        for layer in ref.chunks[(axis, resolution)]
        for chunk in layer
    }
    return [
        index[key].mbr.xy().expanded(thickness) for key in path_keys if key in index
    ]


def msdn_build_mismatches(msdn, pages, ref: MSDNReference, ref_pages) -> list[str]:
    """What differs between an array-built MSDN paged out on ``pages``
    and the object build ``ref`` paged out on ``ref_pages`` (both
    fresh managers of one page size): the family arrays by bytes, the
    chunk keys, the (plane, page) segments the page id of every chunk
    gives, ``stats()``, and every page's length and class.  Empty
    when the builds are identical."""
    if list(msdn._families) != list(ref.chunks):
        return ["families"]
    out = []
    for key, family in msdn._families.items():
        lo, hi = ref.boxes3d[key]
        for name, got, want in (
            ("xy", family.xy, ref.family_xy[key]),
            ("lo", family.lo, lo),
            ("hi", family.hi, hi),
            ("offsets", family.offsets, ref.plane_offsets[key]),
        ):
            if got.tobytes() != want.tobytes():
                out.append(f"{key} {name}")
        keys = [chunk.key for layer in ref.chunks[key] for chunk in layer]
        if [family.key(key[0], row) for row in range(len(family))] != keys:
            out.append(f"{key} keys")
        # Each (plane, page) segment as (first row, page id).
        planes = [c.plane_index for layer in ref.chunks[key] for c in layer]
        chunk_pages = ref.family_pages(*key).tolist()
        segments = [
            (row, page)
            for row, page in enumerate(chunk_pages)
            if row == 0
            or (planes[row], page) != (planes[row - 1], chunk_pages[row - 1])
        ]
        if list(zip(family.seg_start.tolist(), family.seg_page.tolist())) != segments:
            out.append(f"{key} pages")
    if msdn.stats() != ref.stats(msdn.spacing):
        out.append("stats")
    return out + _page_mismatches(pages, ref_pages)


def _page_mismatches(pages, ref_pages) -> list[str]:
    """Pages of two managers that differ in length or class."""
    if pages.num_pages != ref_pages.num_pages:
        return ["page count"]
    return [
        f"page {page_id}"
        for page_id in range(ref_pages.num_pages)
        if pages.page_length(page_id) != ref_pages.page_length(page_id)
        or pages.page_class_of(page_id) != ref_pages.page_class_of(page_id)
    ]


def collapse_history_bits(history: CollapseHistory) -> tuple:
    """Every field of every node of a collapse history, floats as
    bytes, plus the roots: equal tuples mean bit-identical
    histories."""
    nodes = [
        (
            node.node_id,
            node.rep,
            np.asarray(node.position, dtype=float).tobytes(),
            np.float64(node.error).tobytes(),
            node.birth_step,
            node.children,
            node.parent,
            node.death_step,
            [(nbr, np.float64(d).tobytes()) for nbr, d in node.records],
            np.float64(node.offset_to_parent_rep).tobytes(),
        )
        for node in history.nodes
    ]
    return history.num_leaves, history.roots, nodes


def vertex_quadrics_reference(mesh) -> np.ndarray:
    """Per-vertex quadrics by a per-face loop: each face's
    :func:`~repro.simplification.quadric.face_quadric` added to its
    vertices in face order — the twin of
    :func:`repro.simplification.quadric.vertex_quadrics`."""
    q = np.zeros((mesh.num_vertices, 4, 4))
    for face in mesh.faces:
        fq = face_quadric(*mesh.vertices[face])
        for vi in face:
            q[int(vi)] += fq
    return q


def build_collapse_history_reference(mesh) -> CollapseHistory:
    """QEM pair contraction one collapse at a time, with one
    :func:`~repro.simplification.quadric.best_merge_position` call per
    pushed pair and again per popped pair — the twin of
    :func:`repro.simplification.collapse.build_collapse_history`,
    which commits several collapses per round and prices a round's
    pairs in one call.  Its pop order is the one the rounds keep."""
    n = mesh.num_vertices
    quadrics = list(vertex_quadrics_reference(mesh))
    nodes: list[CollapseNode] = []
    active: dict[int, dict[int, float]] = {}

    for vid in range(n):
        nodes.append(
            CollapseNode(
                node_id=vid,
                rep=vid,
                position=mesh.vertices[vid].copy(),
                error=0.0,
                birth_step=0,
            )
        )
    for vid in range(n):
        dists = {
            int(w): mesh.edge_length(vid, int(w))
            for w in mesh.vertex_neighbors[vid]
        }
        active[vid] = dists
        nodes[vid].records = sorted(dists.items())

    counter = itertools.count()
    heap: list[tuple[float, int, int, int]] = []

    def push_pair(u: int, w: int) -> None:
        q = quadrics[u] + quadrics[w]
        _pos, err = best_merge_position(q, nodes[u].position, nodes[w].position)
        heapq.heappush(heap, (err, next(counter), u, w))

    for u, w in mesh.edge_vertices:
        push_pair(int(u), int(w))

    step = 0
    while len(active) > 1:
        while heap:
            err, _tie, a, b = heapq.heappop(heap)
            if a in active and b in active and b in active[a]:
                break
        else:
            break
        step += 1
        d_ab = active[a][b]
        quadric = quadrics[a] + quadrics[b]
        position, qem_err = best_merge_position(
            quadric, nodes[a].position, nodes[b].position
        )
        error = max(qem_err, nodes[a].error, nodes[b].error)
        error = math.nextafter(error, math.inf)
        da = float(np.linalg.norm(position - nodes[a].position))
        db = float(np.linalg.norm(position - nodes[b].position))
        keeper, dropper = (a, b) if da <= db else (b, a)

        c = len(nodes)
        node = CollapseNode(
            node_id=c,
            rep=nodes[keeper].rep,
            position=position,
            error=error,
            birth_step=step,
            children=(a, b),
        )
        merged: dict[int, float] = {}
        for w, d in active[keeper].items():
            if w != dropper:
                merged[w] = d
        for w, d in active[dropper].items():
            if w != keeper and w not in merged:
                merged[w] = d + d_ab
        node.records = sorted(merged.items())
        nodes.append(node)
        quadrics.append(quadric)

        for child, offset in ((keeper, 0.0), (dropper, d_ab)):
            nodes[child].parent = c
            nodes[child].death_step = step
            nodes[child].offset_to_parent_rep = offset

        del active[a]
        del active[b]
        active[c] = merged
        for w, d in merged.items():
            peers = active[w]
            peers.pop(a, None)
            peers.pop(b, None)
            peers[c] = d
            push_pair(c, w)

    return CollapseHistory(nodes, num_leaves=n, roots=sorted(active))


def dem_faces_reference(dem) -> np.ndarray:
    """The faces of :meth:`~repro.terrain.mesh.TriangleMesh.from_dem`
    by a loop over the grid cells, two per cell along alternating
    diagonals."""
    rows, cols = dem.rows, dem.cols
    faces: list[tuple[int, int, int]] = []
    for r in range(rows - 1):
        for c in range(cols - 1):
            v00 = r * cols + c
            v01 = v00 + 1
            v10 = v00 + cols
            v11 = v10 + 1
            if (r + c) % 2 == 0:
                faces.append((v00, v01, v11))
                faces.append((v00, v11, v10))
            else:
                faces.append((v00, v01, v10))
                faces.append((v01, v11, v10))
    return np.asarray(faces, dtype=np.int64)


def mesh_adjacency_reference(mesh) -> dict:
    """The adjacency fields of ``mesh`` by loops over its faces and
    edges, keyed by attribute name — the twin of the array passes of
    :meth:`~repro.terrain.mesh.TriangleMesh._build_adjacency`."""
    faces = mesh.faces
    n_faces = faces.shape[0]
    edge_ids: dict[tuple[int, int], int] = {}
    edge_vertices: list[tuple[int, int]] = []
    edge_faces: list[list[int]] = []
    face_edges = np.empty((n_faces, 3), dtype=np.int64)
    for fi, (a, b, c) in enumerate(faces):
        for slot, (u, w) in enumerate(((a, b), (b, c), (c, a))):
            key = (u, w) if u < w else (w, u)
            eid = edge_ids.get(key)
            if eid is None:
                eid = len(edge_vertices)
                edge_ids[key] = eid
                edge_vertices.append(key)
                edge_faces.append([])
            edge_faces[eid].append(fi)
            face_edges[fi, slot] = eid
    edge_vertices = np.asarray(edge_vertices, dtype=np.int64)
    diffs = mesh.vertices[edge_vertices[:, 0]] - mesh.vertices[edge_vertices[:, 1]]
    neighbors: list[set[int]] = [set() for _ in range(mesh.num_vertices)]
    for u, w in edge_vertices:
        neighbors[u].add(int(w))
        neighbors[w].add(int(u))
    vertex_faces: list[list[int]] = [[] for _ in range(mesh.num_vertices)]
    for fi, face in enumerate(faces):
        for vi in face:
            vertex_faces[int(vi)].append(fi)
    face_neighbors = np.full((n_faces, 3), -1, dtype=np.int64)
    for fi in range(n_faces):
        for slot in range(3):
            for other in edge_faces[face_edges[fi, slot]]:
                if other != fi:
                    face_neighbors[fi, slot] = other
    return {
        "edge_ids": edge_ids,
        "edge_vertices": edge_vertices,
        "face_edges": face_edges,
        "edge_faces": edge_faces,
        "vertex_neighbors": [sorted(s) for s in neighbors],
        "vertex_edges": [
            [edge_ids[(v, u) if v < u else (u, v)] for u in sorted(s)]
            for v, s in enumerate(neighbors)
        ],
        "vertex_faces": vertex_faces,
        "face_neighbors": face_neighbors,
        "edge_lengths": np.sqrt(np.sum(diffs * diffs, axis=1)),
    }


def mesh_adjacency_mismatches(mesh) -> list[str]:
    """The adjacency fields of ``mesh`` that differ from
    :func:`mesh_adjacency_reference`: arrays by dtype, shape and
    bytes, lists and the edge-id dict by value."""
    out = []
    for name, want in mesh_adjacency_reference(mesh).items():
        got = getattr(mesh, name)
        if isinstance(want, np.ndarray):
            same = (
                got.dtype == want.dtype
                and got.shape == want.shape
                and got.tobytes() == want.tobytes()
            )
        else:
            same = got == want
        if not same:
            out.append(name)
    return out


def read_page_reference(manager, page_id: int) -> None:
    """One page through ``manager``'s buffer pool, paying every step
    per page: context lookup, manager lock, pool probe and insert
    (each under the pool lock), quarantine gate, verified fetch and
    one statistics update.  A run of
    :meth:`~repro.storage.pages.PageManager.read_pages` must equal
    one call of this per page, in order — errors, statistics, LRU
    order, fault and quarantine state, registry counters and profile
    frames.  The fetch is :func:`_fetch_verified_reference`; the
    quarantine admission of a read that exhausts its retries happens
    here."""
    page_class = manager.page_class_of(page_id)
    owner = manager._owner
    obs = current()
    with manager._lock:
        if manager._buffer.get(owner, page_id):
            manager.stats.record_read(page_class, physical=False)
            obs.tally("logical_reads")
            return
        verdict = manager.quarantine.gate(owner, page_id)
        if verdict == QUARANTINE_BLOCKED:
            manager.fault_stats.quarantine_fastfails_total += 1
            active_registry().counter("storage.quarantine_fastfails_total").add(1)
            reason = manager.quarantine.reason_of(owner, page_id)
            raise QuarantinedPageError(
                f"page {page_id} is quarantined ({reason}); read "
                "refused without touching the disk"
            )
        if verdict == QUARANTINE_PROBE:
            manager.fault_stats.quarantine_probes_total += 1
            active_registry().counter("storage.quarantine_probes_total").add(1)
        with obs.phase("page-io"):
            try:
                _fetch_verified_reference(manager, page_id)
            except (PageReadError, PageCorruptionError) as exc:
                if verdict == QUARANTINE_PROBE:
                    manager.quarantine.probe_failed(owner, page_id)
                else:
                    manager.quarantine.admit(
                        owner,
                        page_id,
                        reason=(
                            FAULT_CORRUPT
                            if isinstance(exc, PageCorruptionError)
                            else FAULT_TRANSIENT
                        ),
                        page_class=page_class,
                    )
                    manager.fault_stats.pages_quarantined_total += 1
                    active_registry().counter(
                        "storage.pages_quarantined_total"
                    ).add(1)
                raise
            obs.tally("logical_reads")
            obs.tally("physical_reads")
            obs.tally("physical." + page_class)
        if verdict == QUARANTINE_PROBE:
            manager.quarantine.probe_succeeded(owner, page_id)
            manager.fault_stats.pages_readmitted_total += 1
            active_registry().counter("storage.pages_readmitted_total").add(1)
        manager.stats.record_read(page_class, physical=True)
        manager._buffer.put(owner, page_id)


def _fetch_verified_reference(manager, page_id: int) -> None:
    """One page from ``manager``'s simulated disk, with transient
    faults and corrupt attempts (failed CRC checks) retried under its
    retry policy; raises the *last* failure once attempts are
    exhausted."""
    policy = manager.retry_policy
    last_error: StorageError | None = None
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            backoff = policy.backoff_seconds(attempt - 1)
            manager.fault_stats.retries_total += 1
            manager.fault_stats.backoff_seconds_total += backoff
            registry = active_registry()
            registry.counter("storage.retries_total").add(1)
            registry.counter("storage.retry_backoff_seconds").add(backoff)
        transient = None
        try:
            corrupt, latency = manager._disk.read(page_id)
        except _TransientFault as exc:
            transient, corrupt, latency = exc, False, exc.latency
        if latency:
            manager.fault_stats.latency_events_total += 1
            manager.fault_stats.latency_seconds_total += latency
            registry = active_registry()
            registry.counter("storage.fault_latency_events_total").add(1)
            registry.counter("storage.fault_latency_seconds").add(latency)
        if transient is not None:
            manager.fault_stats.transient_faults_total += 1
            active_registry().counter("storage.transient_faults_total").add(1)
            last_error = PageReadError(f"page {page_id}: {transient}")
            continue
        if corrupt:
            manager.fault_stats.corruptions_total += 1
            active_registry().counter("storage.corruptions_total").add(1)
            last_error = PageCorruptionError(f"page {page_id} failed its CRC check")
            continue
        return
    manager.fault_stats.reads_failed_total += 1
    active_registry().counter("storage.read_failures_total").add(1)
    assert last_error is not None
    raise last_error


# ----------------------------------------------------------------------
# Exact window propagation: one object per window, one method per step
# ----------------------------------------------------------------------

_EXACT_EPS = 1e-9
_EXACT_ANGLE_EPS = 1e-7

#: Plain-Python access tables of the reference propagation, one per mesh.
_exact_reference_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _exact_tables_reference(mesh):
    """Face vertices, per-slot edge ids, neighbour faces, edge lengths
    and per-vertex neighbour edge lengths as Python lists (the same
    float64 values as the mesh arrays), plus a saddle-flag cache."""
    tables = _exact_reference_tables.get(mesh)
    if tables is None:
        faces3 = [tuple(int(v) for v in f) for f in mesh.faces]
        fedges3 = [tuple(int(e) for e in row) for row in mesh.face_edges]
        fneigh3 = [tuple(int(g) for g in row) for row in mesh.face_neighbors]
        elen = [float(x) for x in mesh.edge_lengths]
        vneigh_len = [
            [mesh.edge_length(v, u) for u in nbrs]
            for v, nbrs in enumerate(mesh.vertex_neighbors)
        ]
        tables = (faces3, fedges3, fneigh3, elen, vneigh_len, {})
        _exact_reference_tables[mesh] = tables
    return tables


@dataclass
class _ExactWindow:
    """A window on the directed edge (slot ``slot`` of face ``face``),
    propagating *into* that face.

    The local frame puts the edge's first vertex at (0, 0), its second
    at (L, 0) and the face interior at y > 0; the unfolded
    (pseudo-)source sits at (sx, sy) with sy <= 0.  ``sigma`` is the
    distance already walked from the true source to the pseudo-source.
    """

    face: int
    slot: int
    b0: float
    b1: float
    sx: float
    sy: float
    sigma: float

    def min_key(self) -> float:
        """sigma + shortest straight distance from source to interval."""
        if self.b0 - _EXACT_EPS <= self.sx <= self.b1 + _EXACT_EPS:
            reach = abs(self.sy)
        else:
            nearest = self.b0 if self.sx < self.b0 else self.b1
            reach = math.hypot(self.sx - nearest, self.sy)
        return self.sigma + reach

    def dist_to(self, b: float) -> float:
        """sigma + straight distance from source to edge offset ``b``."""
        return self.sigma + math.hypot(self.sx - b, self.sy)


class ExactGeodesicReference:
    """The window propagation as one object per window and one method
    per step (domination test, propagation across a face, cone
    clipping, endpoint updates), the twin of the flat event loop of
    :class:`repro.geodesic.exact.ExactGeodesic`.

    Same constructor and API (``run``, ``distance_to``, ``distances``,
    ``best``, ``windows_created``, ``max_windows``).  Both must agree
    bit for bit: every event popped, every ``best`` entry, the window
    count, the ``geodesic.exact.*`` counters and the point at which a
    ``max_windows`` budget runs out.
    """

    def __init__(self, mesh, source: int, max_windows: int | None = None):
        if not 0 <= source < mesh.num_vertices:
            raise GeodesicError(f"source vertex {source} out of range")
        self.mesh = mesh
        self.source = int(source)
        self.max_windows = max_windows
        self.windows_created = 0
        self.best: list[float] = [math.inf] * mesh.num_vertices
        self.best[source] = 0.0
        self._heap: list[tuple[float, int, str, object]] = []
        self._counter = 0
        self._boundary = mesh.boundary_vertices()
        (
            self._faces3,
            self._fedges3,
            self._fneigh3,
            self._elen,
            self._vneigh_len,
            self._saddle_cache,
        ) = _exact_tables_reference(mesh)
        self._seed_source()

    def _push(self, key: float, kind: str, payload) -> None:
        self._counter += 1
        heapq.heappush(self._heap, (key, self._counter, kind, payload))

    def _seed_source(self) -> None:
        mesh = self.mesh
        s = self.source
        for u, d in zip(mesh.vertex_neighbors[s], self._vneigh_len[s]):
            if d < self.best[u]:
                self.best[u] = d
                self._push(d, "vertex", u)
        self._spawn_pseudo_source(s, 0.0)

    def _is_spreader(self, v: int) -> bool:
        """Whether geodesics may pass *through* vertex ``v``: saddle
        (total angle > 2*pi) or boundary vertices only."""
        if v in self._boundary:
            return True
        cached = self._saddle_cache.get(v)
        if cached is None:
            cached = (
                self.mesh.vertex_total_angle(v) > 2.0 * math.pi + _EXACT_ANGLE_EPS
            )
            self._saddle_cache[v] = cached
        return cached

    def _spawn_pseudo_source(self, v: int, sigma: float) -> None:
        """Emit windows covering the opposite edge of every face
        incident to ``v``, sourced at ``v`` with offset ``sigma``."""
        faces3 = self._faces3
        for fi in self.mesh.vertex_faces[v]:
            face = faces3[fi]
            for slot in range(3):
                if face[slot] != v and face[(slot + 1) % 3] != v:
                    self._emit_window_from_point(fi, slot, v, sigma)
                    break

    def _emit_window_from_point(self, fi: int, slot: int, v: int, sigma: float) -> None:
        """Window on edge ``slot`` of face ``fi`` whose source is mesh
        vertex ``v`` (the apex of that face), covering the whole edge
        and propagating into the neighbouring face."""
        g = self._fneigh3[fi][slot]
        if g < 0:
            return
        face = self._faces3[fi]
        fedges = self._fedges3[fi]
        a = face[slot]
        edge_id = fedges[slot]
        elen = self._elen
        length = elen[edge_id]
        d_a = elen[fedges[(slot + 2) % 3]]
        d_b = elen[fedges[(slot + 1) % 3]]
        g_slot, flipped = self._slot_in_face(g, edge_id, a)
        if flipped:
            d_a, d_b = d_b, d_a
        sx = (d_a * d_a - d_b * d_b + length * length) / (2.0 * length)
        sy2 = d_a * d_a - sx * sx
        sy = -math.sqrt(sy2) if sy2 > 0.0 else 0.0
        self._enqueue_window(
            _ExactWindow(
                face=g, slot=g_slot, b0=0.0, b1=length, sx=sx, sy=sy, sigma=sigma
            )
        )

    def _slot_in_face(self, g: int, edge_id: int, a: int) -> tuple[int, bool]:
        """(slot of ``edge_id`` in face ``g``, whether g's directed edge
        starts at a vertex other than ``a``)."""
        faces = self._faces3[g]
        for slot, eid in enumerate(self._fedges3[g]):
            if eid == edge_id:
                return slot, faces[slot] != a
        raise GeodesicError(f"edge {edge_id} not found in face {g}")

    def _enqueue_window(self, w: _ExactWindow) -> None:
        if w.b1 - w.b0 <= _EXACT_EPS:
            return
        if self._dominated(w):
            return
        if self.max_windows is not None and self.windows_created >= self.max_windows:
            raise GeodesicError(
                f"window budget of {self.max_windows} exhausted; "
                "the mesh is too large for the exact algorithm"
            )
        self.windows_created += 1
        self._update_endpoint_vertices(w)
        self._push(w.min_key(), "window", w)

    def _edge_endpoints(self, w: _ExactWindow) -> tuple[int, int, float]:
        face = self._faces3[w.face]
        a = face[w.slot]
        b = face[(w.slot + 1) % 3]
        length = self._elen[self._fedges3[w.face][w.slot]]
        return a, b, length

    def _dominated(self, w: _ExactWindow) -> bool:
        """Safe deletion: the path via an edge endpoint, then along the
        edge, is no longer than the window anywhere on its interval."""
        a, b, length = self._edge_endpoints(w)
        via_a = self.best[a]
        if math.isfinite(via_a) and w.dist_to(w.b1) >= via_a + w.b1 - _EXACT_EPS:
            return True
        via_b = self.best[b]
        if (
            math.isfinite(via_b)
            and w.dist_to(w.b0) >= via_b + (length - w.b0) - _EXACT_EPS
        ):
            return True
        return False

    def _update_vertex(self, v: int, cand: float) -> None:
        if cand < self.best[v] - _EXACT_EPS:
            self.best[v] = cand
            self._push(cand, "vertex", v)

    def _update_endpoint_vertices(self, w: _ExactWindow) -> None:
        a, b, length = self._edge_endpoints(w)
        if w.b0 <= _EXACT_EPS:
            self._update_vertex(a, w.sigma + math.hypot(w.sx, w.sy))
        if w.b1 >= length - _EXACT_EPS:
            self._update_vertex(b, w.sigma + math.hypot(w.sx - length, w.sy))

    def _propagate(self, w: _ExactWindow) -> None:
        """Push the window across its face onto the two far edges."""
        face = self._faces3[w.face]
        fedges = self._fedges3[w.face]
        elen = self._elen
        slot = w.slot
        c = face[(slot + 2) % 3]
        length = elen[fedges[slot]]
        d_ac = elen[fedges[(slot + 2) % 3]]
        d_bc = elen[fedges[(slot + 1) % 3]]
        cx = (d_ac * d_ac - d_bc * d_bc + length * length) / (2.0 * length)
        cy2 = d_ac * d_ac - cx * cx
        cy = math.sqrt(cy2) if cy2 > 0.0 else 0.0
        apex = (cx, cy)
        src = (w.sx, w.sy)
        p0 = (w.b0, 0.0)
        p1 = (w.b1, 0.0)
        if self._in_cone(src, p0, p1, apex):
            self._update_vertex(c, w.sigma + math.hypot(w.sx - cx, w.sy - cy))
        self._propagate_onto(w, src, p0, p1, (length, 0.0), apex, (w.slot + 1) % 3)
        self._propagate_onto(w, src, p0, p1, apex, (0.0, 0.0), (w.slot + 2) % 3)

    @staticmethod
    def _cross(o, u, v) -> float:
        return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])

    def _in_cone(self, src, p0, p1, x) -> bool:
        return (
            self._cross(src, p0, x) <= _EXACT_EPS
            and self._cross(src, p1, x) >= -_EXACT_EPS
        )

    def _propagate_onto(self, w: _ExactWindow, src, p0, p1, e0, e1, slot: int) -> None:
        """Clip the source cone against the far edge e0→e1 (local
        coordinates) and emit the child window across it."""
        g = self._fneigh3[w.face][slot]
        f0_e0 = self._cross(src, p0, e0)
        f0_e1 = self._cross(src, p0, e1)
        f1_e0 = self._cross(src, p1, e0)
        f1_e1 = self._cross(src, p1, e1)
        t0, t1 = 0.0, 1.0
        t0, t1 = self._clip_affine(t0, t1, f0_e0, f0_e1, keep_negative=True)
        if t0 is None:
            return
        t0, t1 = self._clip_affine(t0, t1, f1_e0, f1_e1, keep_negative=False)
        if t0 is None:
            return
        if t1 - t0 <= _EXACT_EPS:
            return
        edge_id = self._fedges3[w.face][slot]
        length = self._elen[edge_id]
        face = self._faces3[w.face]
        u = face[slot]
        v = face[(slot + 1) % 3]
        if t0 <= _EXACT_EPS:
            self._update_vertex(
                u, w.sigma + math.hypot(src[0] - e0[0], src[1] - e0[1])
            )
        if t1 >= 1.0 - _EXACT_EPS:
            self._update_vertex(
                v, w.sigma + math.hypot(src[0] - e1[0], src[1] - e1[1])
            )
        if g < 0:
            return
        g_slot, flipped = self._slot_in_face(g, edge_id, u)
        d_u = math.hypot(src[0] - e0[0], src[1] - e0[1])
        d_v = math.hypot(src[0] - e1[0], src[1] - e1[1])
        if flipped:
            b0n = length * (1.0 - t1)
            b1n = length * (1.0 - t0)
            d_first, d_second = d_v, d_u
        else:
            b0n = length * t0
            b1n = length * t1
            d_first, d_second = d_u, d_v
        sx = (d_first * d_first - d_second * d_second + length * length) / (2.0 * length)
        sy2 = d_first * d_first - sx * sx
        sy = -math.sqrt(sy2) if sy2 > 0.0 else 0.0
        self._enqueue_window(
            _ExactWindow(
                face=g, slot=g_slot, b0=b0n, b1=b1n, sx=sx, sy=sy, sigma=w.sigma
            )
        )

    @staticmethod
    def _clip_affine(t0, t1, f_at_0, f_at_1, keep_negative: bool):
        """Intersect [t0, t1] with {t : f(t) <= 0} (or >= 0), where f
        is affine with the given endpoint values.  Returns (None, None)
        when empty."""
        if keep_negative:
            f_at_0, f_at_1 = -f_at_0, -f_at_1
        if f_at_0 >= -_EXACT_EPS and f_at_1 >= -_EXACT_EPS:
            return t0, t1
        if f_at_0 < 0.0 and f_at_1 < 0.0:
            return None, None
        t_star = f_at_0 / (f_at_0 - f_at_1)
        if f_at_0 < 0.0:
            return max(t0, t_star), t1
        return t0, min(t1, t_star)

    def run(self, until_vertex: int | None = None) -> None:
        """Drain the event queue; optionally stop once ``until_vertex``
        is provably final."""
        heap = self._heap
        vertices_settled = 0
        windows_propagated = 0
        try:
            while heap:
                key, _tie, kind, payload = heapq.heappop(heap)
                if until_vertex is not None and key >= self.best[until_vertex] - _EXACT_EPS:
                    heapq.heappush(heap, (key, _tie, kind, payload))
                    return
                if kind == "vertex":
                    v = int(payload)
                    bv = self.best[v]
                    if key > bv + _EXACT_EPS:
                        continue
                    vertices_settled += 1
                    for w, dl in zip(
                        self.mesh.vertex_neighbors[v], self._vneigh_len[v]
                    ):
                        self._update_vertex(w, bv + dl)
                    if self._is_spreader(v) and v != self.source:
                        self._spawn_pseudo_source(v, bv)
                else:
                    w = payload
                    if self._dominated(w):
                        continue
                    windows_propagated += 1
                    self._propagate(w)
        finally:
            if vertices_settled or windows_propagated:
                obs = current()
                obs.count("geodesic.exact.vertices_settled", vertices_settled)
                obs.count("geodesic.exact.windows_propagated", windows_propagated)

    def distance_to(self, target: int) -> float:
        """Exact surface distance from the source to ``target``."""
        if not 0 <= target < self.mesh.num_vertices:
            raise GeodesicError(f"target vertex {target} out of range")
        self.run(until_vertex=target)
        d = float(self.best[target])
        if not math.isfinite(d):
            raise GeodesicError(f"vertex {target} unreachable from {self.source}")
        return d

    def distances(self) -> np.ndarray:
        """Exact distances to every vertex (full propagation)."""
        self.run()
        return np.asarray(self.best, dtype=float)
