"""A dynamic R-tree (Guttman) with range and best-first k-NN search.

The reproduction's one 2D index.  It serves:

* the index over ``Dxy`` (xy-projections of the object points) used
  by MR3's 2D k-NN filter (step 1) and 2D range query (step 3);
* the Euclidean browse of the IER baseline
  (:mod:`repro.core.network_baselines`).

k-NN uses the classic Hjaltason–Samet best-first traversal with a
priority queue ordered by MBR min-distance, which the paper cites as
one of the standard constraint-free k-NN methods.
"""

from __future__ import annotations

import heapq
import itertools

from repro.errors import SpatialIndexError
from repro.geometry.primitives import BoundingBox


class _Node:
    __slots__ = ("leaf", "entries", "box")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        # Leaf entries: (BoundingBox, payload); internal: (BoundingBox, _Node).
        self.entries: list[tuple[BoundingBox, object]] = []
        self.box: BoundingBox | None = None

    def recompute_box(self) -> None:
        box = self.entries[0][0]
        for b, _child in self.entries[1:]:
            box = box.union(b)
        self.box = box


class RTree:
    """R-tree over (box, payload) entries.

    Parameters
    ----------
    max_entries:
        Node capacity (Guttman's M); nodes split when they exceed it.
    min_entries:
        Minimum fill (m) used by the quadratic split.
    """

    def __init__(self, max_entries: int = 8, min_entries: int | None = None):
        if max_entries < 2:
            raise SpatialIndexError("max_entries must be >= 2")
        self.max_entries = max_entries
        self.min_entries = min_entries if min_entries is not None else max(
            2, max_entries // 3
        )
        if self.min_entries * 2 > max_entries:
            raise SpatialIndexError("min_entries must be at most max_entries / 2")
        self._root = _Node(leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert(self, box: BoundingBox, payload) -> None:
        """Insert a payload under its bounding box."""
        self._size += 1
        split = self._insert(self._root, box, payload)
        if split is not None:
            old_root = self._root
            self._root = _Node(leaf=False)
            old_root.recompute_box()
            split.recompute_box()
            self._root.entries = [(old_root.box, old_root), (split.box, split)]
            self._root.recompute_box()

    def insert_point(self, point, payload) -> None:
        """Insert a point payload (degenerate box)."""
        p = tuple(float(c) for c in point)
        self.insert(BoundingBox(p, p), payload)

    def _insert(self, node: _Node, box: BoundingBox, payload) -> "_Node | None":
        if node.leaf:
            node.entries.append((box, payload))
        else:
            idx = self._choose_subtree(node, box)
            child_box, child = node.entries[idx]
            split = self._insert(child, box, payload)
            node.entries[idx] = (child_box.union(box), child)
            if split is not None:
                split.recompute_box()
                node.entries.append((split.box, split))
        node.box = box if node.box is None else node.box.union(box)
        if len(node.entries) > self.max_entries:
            return self._split(node)
        return None

    @staticmethod
    def _enlargement(box: BoundingBox, extra: BoundingBox) -> float:
        return box.union(extra).measure() - box.measure()

    def _choose_subtree(self, node: _Node, box: BoundingBox) -> int:
        best = 0
        best_cost = None
        for i, (child_box, _child) in enumerate(node.entries):
            cost = (self._enlargement(child_box, box), child_box.measure())
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best = i
        return best

    def _split(self, node: _Node) -> _Node:
        """Guttman's quadratic split; mutates ``node`` into one group
        and returns a new sibling holding the other."""
        entries = node.entries
        # Pick the pair wasting the most area as seeds.
        worst = None
        seeds = (0, 1)
        for i, j in itertools.combinations(range(len(entries)), 2):
            waste = (
                entries[i][0].union(entries[j][0]).measure()
                - entries[i][0].measure()
                - entries[j][0].measure()
            )
            if worst is None or waste > worst:
                worst = waste
                seeds = (i, j)
        group_a = [entries[seeds[0]]]
        group_b = [entries[seeds[1]]]
        box_a = group_a[0][0]
        box_b = group_b[0][0]
        rest = [e for idx, e in enumerate(entries) if idx not in seeds]
        while rest:
            # Honour minimum fill.
            if len(group_a) + len(rest) == self.min_entries:
                group_a.extend(rest)
                for b, _p in rest:
                    box_a = box_a.union(b)
                break
            if len(group_b) + len(rest) == self.min_entries:
                group_b.extend(rest)
                for b, _p in rest:
                    box_b = box_b.union(b)
                break
            # Assign the entry with the strongest preference.
            best_idx = 0
            best_diff = -1.0
            for idx, (b, _p) in enumerate(rest):
                diff = abs(
                    self._enlargement(box_a, b) - self._enlargement(box_b, b)
                )
                if diff > best_diff:
                    best_diff = diff
                    best_idx = idx
            entry = rest.pop(best_idx)
            grow_a = self._enlargement(box_a, entry[0])
            grow_b = self._enlargement(box_b, entry[0])
            if (grow_a, box_a.measure(), len(group_a)) <= (
                grow_b,
                box_b.measure(),
                len(group_b),
            ):
                group_a.append(entry)
                box_a = box_a.union(entry[0])
            else:
                group_b.append(entry)
                box_b = box_b.union(entry[0])
        node.entries = group_a
        node.box = box_a
        sibling = _Node(leaf=node.leaf)
        sibling.entries = group_b
        sibling.box = box_b
        return sibling

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def range_query(self, region: BoundingBox) -> list:
        """Payloads whose boxes intersect ``region``."""
        if self._size == 0:
            return []
        result: list = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.box is not None and not node.box.intersects(region):
                continue
            for box, item in node.entries:
                if not box.intersects(region):
                    continue
                if node.leaf:
                    result.append(item)
                else:
                    stack.append(item)
        return result

    def circle_query(self, center, radius: float) -> list:
        """Payloads whose boxes come within ``radius`` of ``center``.

        This is the step-3 range query of MR3 (centre q', radius
        ub(q, b)); the box filter is refined with an exact min-dist
        check so no false positives leak through.
        """
        if radius < 0:
            raise SpatialIndexError("radius must be non-negative")
        c = tuple(float(v) for v in center)
        result = []
        stack = [self._root] if self._size else []
        while stack:
            node = stack.pop()
            if node.box is not None and node.box.min_dist_point(c) > radius:
                continue
            for box, item in node.entries:
                if box.min_dist_point(c) > radius:
                    continue
                if node.leaf:
                    result.append(item)
                else:
                    stack.append(item)
        return result

    def knn(self, point, k: int) -> list:
        """The k payloads nearest to ``point`` (best-first search).

        Returns ``(distance, payload)`` pairs in ascending distance
        order; fewer than k when the tree is smaller.
        """
        if k < 1:
            raise SpatialIndexError("k must be >= 1")
        return list(itertools.islice(self.nearest_iter(point), k))

    def nearest_iter(self, point):
        """Incremental nearest-neighbour iterator (Hjaltason-Samet).

        Yields ``(distance, payload)`` in ascending distance order,
        lazily — the "distance browsing" primitive that IER-style
        algorithms consume one neighbour at a time.
        """
        if self._size == 0:
            return
        p = tuple(float(c) for c in point)
        counter = itertools.count()
        heap: list[tuple[float, int, bool, object]] = [
            (0.0 if self._root.box is None else self._root.box.min_dist_point(p),
             next(counter), False, self._root)
        ]
        while heap:
            dist, _tie, is_payload, item = heapq.heappop(heap)
            if is_payload:
                yield (dist, item)
                continue
            node = item
            for box, child in node.entries:
                d = box.min_dist_point(p)
                heapq.heappush(heap, (d, next(counter), node.leaf, child))
