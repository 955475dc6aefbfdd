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

Collapses are committed in rounds (:func:`build_collapse_history`):
the cheapest pairwise non-adjacent heap entries are priced together,
and the round keeps the prefix a one-pair-at-a-time loop would pop in
the same order, so the tree is that loop's, bit for bit.
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

    Collapses run in rounds (:func:`_select`, :func:`_accept`): each
    round takes the cheapest valid heap entries that are pairwise
    non-adjacent, prices the new pairs of all their merged nodes in
    one :func:`~repro.simplification.quadric.merge_costs` call, and
    commits the longest prefix the one-at-a-time loop would pop in
    the same order; the rest go back on the heap unchanged.  A heap
    entry carries its pair's merge position and representative
    choice, so a popped pair is never evaluated again.  The history
    equals the per-pair loop's
    (:func:`repro.testkit.reference.build_collapse_history_reference`)
    node for node and bit for bit, heap tie order included.

    That argument needs keys that order: a tuple holding a NaN price
    is neither less nor greater than another, and ``heapq`` then pops
    by heap layout, which rounds change.  So once any price is NaN
    the build starts over with one-entry rounds, which push and pop
    exactly as the per-pair loop does, op for op.
    """
    history = _contract(mesh, single=False)
    if history is None:
        history = _contract(mesh, single=True)
    return history


def _select(heap: list, active: dict, single: bool) -> tuple[list, list]:
    """Pop one round's entries off the heap, cheapest first.

    Looking at the heap top until the round stops: an entry that is
    stale (a node merged, or no longer adjacent) is dropped, as the
    one-at-a-time loop drops it; one that shares a node with an entry
    selected this round is set aside (it is stale once that entry
    commits); one with a node among the selected entries' nodes and
    their neighbours ends the round and stays on the heap; any other
    joins the round.  With ``single`` the round ends at its first
    entry.  Returns ``(selected, set_aside)``, each in pop order.
    """
    selected: list = []
    set_aside: list = []
    taken: set = set()
    blocked: set = set()
    while heap:
        entry = heap[0]
        a, b = entry[2], entry[3]
        if a not in active or b not in active or b not in active[a]:
            heapq.heappop(heap)
        elif a in taken or b in taken:
            set_aside.append(heapq.heappop(heap))
        elif a in blocked or b in blocked:
            break
        else:
            selected.append(heapq.heappop(heap))
            if single:
                break
            taken.update((a, b))
            blocked.update(active[a])
            blocked.update(active[b])
    return selected, set_aside


def _accept(heap: list, selected: list, set_aside: list, prices: list) -> int:
    """How many leading entries of ``selected`` the one-at-a-time loop
    pops in this order; pushes the others and every set-aside entry
    back unchanged.

    ``prices[i]`` are the prices of entry ``i``'s new pairs.  Those
    pairs' counters exceed every selected entry's, so the loop pops
    entry ``j`` before all pairs of entries ``0 .. j-1`` exactly when
    its price is at most theirs; the entries popped in between are
    stale by then, and no later entry makes an earlier one's pairs
    stale.  The first entry is always accepted.
    """
    accepted = 1
    low = math.inf
    for entry, before in zip(selected[1:], prices):
        low = min(low, min(before, default=low))
        if not entry[0] <= low:
            break
        accepted += 1
    for entry in itertools.chain(selected[accepted:], set_aside):
        heapq.heappush(heap, entry)
    return accepted


def _contract(mesh, single: bool) -> CollapseHistory | None:
    """The collapse loop of :func:`build_collapse_history`, in
    one-entry rounds with ``single``; without it, None as soon as a
    price is NaN."""
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

    def price(us: np.ndarray, ws: np.ndarray):
        """Merge positions, prices and keeper flags of the pairs
        ``(us[i], ws[i])`` from one fused call; None on a NaN price
        unless ``single``."""
        pos, err, keep_a = merge_costs(
            quadrics[us] + quadrics[ws], positions[us], positions[ws]
        )
        if not single and np.isnan(err).any():
            return None
        return pos, err.tolist(), keep_a.tolist()

    def push(us, ws, pos, prices, keeps) -> None:
        for u, w, p, e, k in zip(us, ws, pos, prices, keeps):
            heapq.heappush(heap, (e, next(counter), u, w, p, k))

    priced = price(edges[:, 0], edges[:, 1])
    if priced is None:
        return None
    push(edges[:, 0].tolist(), edges[:, 1].tolist(), *priced)

    step = 0
    while len(active) > 1:
        selected, set_aside = _select(heap, active, single)
        if not selected:
            # Disconnected graph: remaining actives become roots.
            break
        # Each selected entry's merged node, as its commit will make
        # it: no selected entry's bookkeeping touches another's dicts.
        base = len(nodes)
        top = base + len(selected)
        merges = []
        for _err, _tie, a, b, _position, keep_a in selected:
            # Representative: keep the child nearer the merged position.
            keeper, dropper = (a, b) if keep_a else (b, a)
            d_ab = active[a][b]
            # Paper's distance recurrence, phrased around the keeper:
            # via the keeper's representative directly, or via the
            # dropped child's representative plus d(a, b).
            merged: dict[int, float] = {}
            for w, d in active[keeper].items():
                if w != dropper:
                    merged[w] = d
            for w, d in active[dropper].items():
                if w != keeper and w not in merged:
                    merged[w] = d + d_ab
            merges.append((keeper, dropper, d_ab, merged))
        quadrics[base:top] = (
            quadrics[[entry[2] for entry in selected]]
            + quadrics[[entry[3] for entry in selected]]
        )
        positions[base:top] = [entry[4] for entry in selected]
        # Every new pair of the round, priced in one call.
        sizes = [len(merged) for *_, merged in merges]
        priced = price(
            np.repeat(np.arange(base, top), sizes),
            np.fromiter(
                itertools.chain.from_iterable(merged for *_, merged in merges),
                dtype=np.int64,
                count=sum(sizes),
            ),
        )
        if priced is None:
            return None
        pos, flat, keeps = priced
        offsets = [0, *itertools.accumulate(sizes)]
        prices = [flat[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
        accepted = _accept(heap, selected, set_aside, prices)

        for i in range(accepted):
            qem_err, _tie, a, b, position, _keep = selected[i]
            keeper, dropper, d_ab, merged = merges[i]
            step += 1
            # Errors must be monotone up the tree for clean LOD cuts.
            error = max(qem_err, nodes[a].error, nodes[b].error)
            error = math.nextafter(error, math.inf)
            c = base + i
            node = CollapseNode(
                node_id=c,
                rep=nodes[keeper].rep,
                position=position,
                error=error,
                birth_step=step,
                children=(a, b),
            )
            node.records = sorted(merged.items())
            nodes.append(node)

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
            lo, hi = offsets[i], offsets[i + 1]
            push(itertools.repeat(c), merged, pos[lo:hi], prices[i], keeps[lo:hi])

    roots = sorted(active)
    return CollapseHistory(nodes, num_leaves=n, roots=roots)
