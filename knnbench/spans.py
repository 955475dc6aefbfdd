"""Outside-in layer tracing for the benchmark.

:func:`install` wraps the public entry points of each layer with
``setattr`` at run time -- the class attribute, or the module
attribute the caller actually looks up -- and :func:`uninstall` puts
the originals back.  Nothing under ``src/`` knows it is traced; a
target a later refactor removes is reported as missing, not raised.

Each wrapper records one span (layer, start, end, parent, query id) on
a per-thread stack.  A span that starts on an empty stack opens a new
query if its layer is a query root (``core.engine``, ``shard``);
otherwise it is adopted by the most recently opened query still
running, which is how window builds on a shard's thread pool land in
the query that waits for them.

Self time is computed per query by slicing time: at every instant
the query's innermost open spans (those with no open child) share the
elapsed time equally.  For nested spans on one thread that is span
time minus child time; with children on other threads it still
partitions the query's root time exactly.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

ROOT_LAYERS = ("core.engine", "shard")

#: (layer, "module:attribute path") of every wrapped entry point.
TARGETS = (
    ("core.engine", "repro.core.engine:SurfaceKNNEngine.query"),
    ("core.mr3", "repro.core.mr3:MR3QueryProcessor.query"),
    ("core.ranking", "repro.core.ranking:DistanceRanker.rank"),
    ("core.batch", "repro.core.batch:BoundCache.lookup"),
    ("core.batch", "repro.core.batch:BoundCache.lookup_network"),
    ("spatial", "repro.core.objects:ObjectSet.knn_2d"),
    ("spatial", "repro.core.objects:ObjectSet.range_2d"),
    ("multires", "repro.multires.dmtm:DMTM.extract_network"),
    ("multires", "repro.multires.dmtm:DMTM.upper_bound"),
    ("multires", "repro.multires.dmtm:DMTM.upper_bounds_from"),
    ("multires", "repro.multires.dmtm:DMTM.upper_bounds_multi"),
    ("multires", "repro.multires.dmtm:DMTM.touch_region"),
    ("multires", "repro.multires.dmtm:DMTM.path_region"),
    ("msdn", "repro.msdn.msdn:MSDN.lower_bound"),
    ("msdn", "repro.msdn.msdn:MSDN.lower_bound_batch"),
    ("msdn", "repro.msdn.msdn:MSDN.touch_region"),
    ("msdn", "repro.msdn.msdn:MSDN.corridor_from_path"),
    ("geodesic.pathnet", "repro.multires.dmtm:build_pathnet"),
    ("geodesic.pathnet", "repro.geodesic.kanai_suzuki:build_pathnet"),
    ("geodesic.kernels", "repro.multires.dmtm:graph_dijkstra_with_parents"),
    ("geodesic.kernels", "repro.multires.dmtm:multi_source_dijkstra_csr"),
    ("geodesic.kernels", "repro.geodesic.kanai_suzuki:graph_dijkstra_with_parents"),
    ("geodesic.refine", "repro.geodesic.kanai_suzuki:kanai_suzuki_distance"),
    ("geodesic.landmarks", "repro.geodesic.landmarks:LandmarkIndex.kth_upper_bound"),
    ("geodesic.landmarks", "repro.geodesic.landmarks:LandmarkIndex.anchored_lower_bounds"),
    ("storage", "repro.storage.pages:PageManager.read"),
    ("shard", "repro.shard.engine:ShardedEngine.query"),
    ("shard.stitch", "repro.shard.engine:border_offsets"),
    ("shard.stitch", "repro.shard.engine:stitch_into"),
    ("shard.stitch", "repro.shard.engine:detour_lower_bounds"),
    ("build.mesh", "repro.terrain.mesh:TriangleMesh.from_dem"),
    ("build.dmtm", "repro.multires.dmtm:DMTM.__init__"),
    ("build.msdn", "repro.msdn.msdn:MSDN.__init__"),
    ("build.landmarks", "repro.geodesic.landmarks:LandmarkIndex.build"),
    ("build.engine", "repro.core.engine:SurfaceKNNEngine.__init__"),
)

#: Column order of a span line in the JSONL output.
SPAN_FIELDS = ("id", "parent", "query", "layer", "target", "phase",
               "thread", "start", "end")


class Span:
    __slots__ = SPAN_FIELDS

    def __init__(self, id, layer, target, start, parent, query, thread, phase):
        self.id = id
        self.layer = layer
        self.target = target
        self.start = start
        self.end = None
        self.parent = parent
        self.query = query
        self.thread = thread
        self.phase = phase

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> list:
        return [getattr(self, field) for field in SPAN_FIELDS]


class Tracer:
    """Collects spans in memory.  ``phase`` labels every span started
    while it is set (the benchmark switches it from ``setup`` to
    ``query``)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_roots: list[Span] = []
        self._query_ids = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str, target: str = "") -> Span:
        stack = self._stack()
        start = self.clock()
        with self._lock:
            if stack:
                parent = stack[-1]
                query, parent_id = parent.query, parent.id
            elif layer in ROOT_LAYERS:
                query, parent_id = next(self._query_ids), None
            elif self._open_roots:
                adopter = self._open_roots[-1]
                query, parent_id = adopter.query, adopter.id
            else:
                query, parent_id = None, None
            span = Span(
                len(self.spans), layer, target, start, parent_id, query,
                threading.get_ident(), self.phase,
            )
            self.spans.append(span)
            if not stack and layer in ROOT_LAYERS:
                self._open_roots.append(span)
        stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        stack.pop()
        if span.parent is None and span.query is not None:
            with self._lock:
                self._open_roots.remove(span)

    def write_jsonl(self, path) -> None:
        """One JSON array per span, columns as in the first line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.record()) + "\n")


def _resolve(path: str):
    """(owner, attribute name, current value) for ``module:a.b``."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


def _wrap(tracer: Tracer, layer: str, target: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.enter(layer, target)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(span)

    return traced


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every target; returns ``(restore, missing)`` where
    ``restore`` lists what :func:`uninstall` puts back and
    ``missing`` names the targets that no longer exist."""
    restore, missing = [], []
    for layer, path in targets:
        try:
            owner, name, raw = _resolve(path)
        except (ImportError, AttributeError, KeyError):
            missing.append(path)
            continue
        target = path.partition(":")[2]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tracer, layer, target, raw.__func__))
        else:
            wrapped = _wrap(tracer, layer, target, raw)
        setattr(owner, name, wrapped)
        restore.append((owner, name, raw))
    return restore, missing


def uninstall(restore) -> None:
    for owner, name, raw in reversed(restore):
        setattr(owner, name, raw)


def self_times(spans) -> dict[int, float]:
    """Self seconds per span id, by slicing each query's time among
    its innermost open spans (see the module docstring)."""
    by_query = defaultdict(list)
    for span in spans:
        if span.query is not None:
            by_query[span.query].append(span)
    out: dict[int, float] = {}
    for members in by_query.values():
        out.update(_slice_query(members))
    return out


def _slice_query(members) -> dict[int, float]:
    parent = {s.id: s.parent for s in members}
    depth: dict[int, int] = {}

    def depth_of(sid):
        if sid not in depth:
            p = parent.get(sid)
            depth[sid] = 0 if p is None else depth_of(p) + 1
        return depth[sid]

    events = []
    for s in members:
        d = depth_of(s.id)
        # At one instant: ends before starts, children end before
        # their parents, parents start before their children.
        events.append((s.start, 1, d, s.id))
        events.append((s.end, 0, -d, s.id))
    events.sort()
    self_s = {s.id: 0.0 for s in members}
    open_children = defaultdict(int)
    innermost: set[int] = set()
    is_open: set[int] = set()
    prev = None
    for t, is_start, _d, sid in events:
        if prev is not None and innermost and t > prev:
            share = (t - prev) / len(innermost)
            for x in innermost:
                self_s[x] += share
        prev = t
        p = parent.get(sid)
        if is_start:
            is_open.add(sid)
            if open_children[sid] == 0:
                innermost.add(sid)
            if p is not None:
                open_children[p] += 1
                innermost.discard(p)
        else:
            is_open.discard(sid)
            innermost.discard(sid)
            if p is not None:
                open_children[p] -= 1
                if open_children[p] == 0 and p in is_open:
                    innermost.add(p)
    return self_s
