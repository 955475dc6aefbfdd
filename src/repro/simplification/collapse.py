"""Pair-contraction engine producing the DM/DDM binary collapse tree.

DM construction is "a bottom-up process.  Each vertex in the original
terrain mesh is represented by a leaf node.  Then, a pair of connected
nodes are selected to collapse to form their parent node if the
resultant terrain after the merger causes minimum approximation error
... Such approximation error e is recorded with every non-leaf node
... This process continues until a tree is formed."  (paper, §3.2)

On top of plain DM bookkeeping this engine records the *distance*
information that turns DM into DDM:

* every node keeps a **representative** vertex of the original mesh
  (a leaf is its own representative; a parent inherits one child's);
* every node snapshots, at its creation, its neighbour list together
  with distances computed by the paper's recurrence

  ``d(c, w) = d(a, w)`` if ``w ∈ N(a)`` else ``d(b, w) + d(a, b)``

  so each recorded distance is the length of a genuine path in the
  *original* mesh network between the two representatives — the fact
  that makes DMTM estimates true upper bounds of ``dS``;
* the child whose representative is dropped stores
  ``offset_to_parent_rep = d(a, b)``, letting queries translate any
  original vertex into (ancestor representative, path offset) at any
  cut of the tree.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimplificationError
from repro.simplification.quadric import merge_costs, vertex_quadrics


@dataclass
class CollapseNode:
    """One node of the binary collapse tree (leaf = original vertex)."""

    node_id: int
    rep: int
    position: np.ndarray
    error: float
    birth_step: int
    children: tuple[int, int] | None = None
    parent: int | None = None
    death_step: int | None = None
    records: list[tuple[int, float]] = field(default_factory=list)
    offset_to_parent_rep: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def alive_at(self, step: int) -> bool:
        return self.birth_step <= step and (
            self.death_step is None or self.death_step > step
        )


class CollapseHistory:
    """The full collapse tree plus cut/extraction helpers."""

    def __init__(self, nodes: list[CollapseNode], num_leaves: int, roots: list[int]):
        self.nodes = nodes
        self.num_leaves = num_leaves
        self.roots = roots
        self.num_steps = len(nodes) - num_leaves

    # -- cuts ----------------------------------------------------------

    def step_for_fraction(self, fraction: float) -> int:
        """Collapse step whose cut keeps ~``fraction`` of the leaves.

        ``fraction`` in (0, 1]; the cut size is clamped to [2, n].
        """
        if not 0.0 < fraction <= 1.0:
            raise SimplificationError(
                f"fraction must be in (0, 1], got {fraction}"
            )
        target = max(2, int(round(fraction * self.num_leaves)))
        target = min(target, self.num_leaves)
        return min(self.num_leaves - target, self.num_steps)

    def cut_at_step(self, step: int) -> list[int]:
        """Node ids alive exactly after ``step`` collapses."""
        if not 0 <= step <= self.num_steps:
            raise SimplificationError(f"step {step} out of range")
        return [n.node_id for n in self.nodes if n.alive_at(step)]

    def cut_for_fraction(self, fraction: float) -> list[int]:
        return self.cut_at_step(self.step_for_fraction(fraction))

    def edges_of_cut(self, cut: list[int]):
        """Yield (u, w, dist) for every recorded edge alive in ``cut``.

        Each edge is yielded once.  The distance is the recorded
        representative-path length.
        """
        alive = set(cut)
        seen: set[tuple[int, int]] = set()
        for node_id in cut:
            for nbr, d in self.nodes[node_id].records:
                if nbr in alive:
                    key = (node_id, nbr) if node_id < nbr else (nbr, node_id)
                    if key not in seen:
                        seen.add(key)
                        yield key[0], key[1], d

    def ancestor_at_step(self, leaf_id: int, step: int) -> tuple[int, float]:
        """(ancestor node id, representative offset) of an original
        vertex at the given cut.

        The offset is the length of an original-network path from the
        leaf's vertex to the ancestor's representative vertex —
        accumulated ``offset_to_parent_rep`` along the chain.
        """
        if not 0 <= leaf_id < self.num_leaves:
            raise SimplificationError(f"leaf {leaf_id} out of range")
        node = self.nodes[leaf_id]
        offset = 0.0
        while not node.alive_at(step):
            if node.parent is None:
                raise SimplificationError(
                    f"leaf {leaf_id} has no ancestor alive at step {step}"
                )
            offset += node.offset_to_parent_rep
            node = self.nodes[node.parent]
        return node.node_id, offset

    def max_error(self) -> float:
        return max((n.error for n in self.nodes), default=0.0)


def build_collapse_history(mesh) -> CollapseHistory:
    """Run QEM pair contraction on a mesh down to a single root.

    Returns the full :class:`CollapseHistory`; runtime is
    O(n log n · average degree) with n mesh vertices.

    Pair costs come from one fused call per batch
    (:func:`~repro.simplification.quadric.merge_costs`): every mesh
    edge up front, then after each collapse the merged node against
    all its neighbours.  A heap entry carries its pair's merge
    position and representative choice, so a popped pair is never
    evaluated again.  The history equals the per-pair loop's
    (:func:`repro.testkit.reference.build_collapse_history_reference`)
    node for node and bit for bit, heap tie order included.
    """
    n = mesh.num_vertices
    # Quadric and position rows per node id; a collapse adds one node.
    capacity = max(2 * n - 1, n)
    quadrics = np.empty((capacity, 4, 4))
    quadrics[:n] = vertex_quadrics(mesh)
    positions = np.empty((capacity, 3))
    positions[:n] = mesh.vertices
    nodes: list[CollapseNode] = [
        CollapseNode(
            node_id=vid, rep=vid, position=row, error=0.0, birth_step=0
        )
        for vid, row in enumerate(mesh.vertices.copy())
    ]
    # Live adjacency with representative-path distances, each vertex's
    # neighbours in ascending order: both directions of every edge,
    # sorted by (vertex, neighbour).
    edges = np.asarray(mesh.edge_vertices, dtype=np.int64).reshape(-1, 2)
    tails = np.concatenate((edges[:, 0], edges[:, 1]))
    heads = np.concatenate((edges[:, 1], edges[:, 0]))
    order = np.lexsort((heads, tails))
    ends = np.cumsum(np.bincount(tails, minlength=n)).tolist()
    heads = heads[order].tolist()
    lengths = np.concatenate((mesh.edge_lengths, mesh.edge_lengths))[order].tolist()
    active: dict[int, dict[int, float]] = {}
    start = 0
    for vid, end in enumerate(ends):
        dists = dict(zip(heads[start:end], lengths[start:end]))
        active[vid] = dists
        nodes[vid].records = sorted(dists.items())
        start = end

    counter = itertools.count()
    heap: list[tuple] = []

    def push_pairs(us, ws: np.ndarray) -> None:
        pos, err, keep_a = merge_costs(
            quadrics[us] + quadrics[ws], positions[us], positions[ws]
        )
        us = us.tolist() if isinstance(us, np.ndarray) else [us] * len(ws)
        for e, u, w, p, k in zip(err.tolist(), us, ws.tolist(), pos, keep_a.tolist()):
            heapq.heappush(heap, (e, next(counter), u, w, p, k))

    if edges.size:
        push_pairs(edges[:, 0], edges[:, 1])

    step = 0
    while len(active) > 1:
        # Pop the cheapest still-valid contraction.
        while heap:
            qem_err, _tie, a, b, position, keep_a = heapq.heappop(heap)
            if a in active and b in active and b in active[a]:
                break
        else:
            # Disconnected graph: remaining actives become roots.
            break
        step += 1
        d_ab = active[a][b]
        # Errors must be monotone up the tree for clean LOD cuts.
        error = max(qem_err, nodes[a].error, nodes[b].error)
        error = math.nextafter(error, math.inf)

        # Representative: keep the child nearer the merged position.
        keeper, dropper = (a, b) if keep_a else (b, a)

        c = len(nodes)
        node = CollapseNode(
            node_id=c,
            rep=nodes[keeper].rep,
            position=position,
            error=error,
            birth_step=step,
            children=(a, b),
        )
        # Paper's distance recurrence, phrased around the keeper: via
        # the keeper's representative directly, or via the dropped
        # child's representative plus d(a, b).
        merged: dict[int, float] = {}
        for w, d in active[keeper].items():
            if w != dropper:
                merged[w] = d
        for w, d in active[dropper].items():
            if w != keeper and w not in merged:
                merged[w] = d + d_ab
        node.records = sorted(merged.items())
        nodes.append(node)
        np.add(quadrics[a], quadrics[b], out=quadrics[c])
        positions[c] = position

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
        if merged:
            push_pairs(c, np.fromiter(merged, dtype=np.int64, count=len(merged)))

    roots = sorted(active)
    return CollapseHistory(nodes, num_leaves=n, roots=roots)
