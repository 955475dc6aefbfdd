"""A sharded surface k-NN engine over tiled terrain.

:class:`ShardedEngine` partitions one DEM into a grid of overlapping
tiles (:class:`~repro.shard.tiles.TileGrid`), builds a full
:class:`~repro.core.engine.SurfaceKNNEngine` — DMTM, MSDN, paged
store, object-index slice — per rectangular *tile span* it actually
needs, and answers queries through the smallest window it can
*certify*:

1. route the query to its home tile (:meth:`~repro.shard.tiles.TileGrid.home_tile`);
2. answer inside the window engine and run the **separation test**:
   the answer is accepted iff every object outside the answer set has
   a globally sound lower bound strictly above the k-th upper bound.
   Global soundness composes three admissible sources per object:
   the 3D straight-line distance, the window engine's own lower bound
   (valid for paths that stay inside the window), and the border
   **detour bound** (valid for paths that leave it) — see
   :mod:`repro.shard.stitch`;
3. on rejection, expand: first by **boundary-anchor stitching**
   (cross-tile upper bounds through shared border vertices pick the
   window that covers the certified k-th disk in one step), then by
   tile rings, and finally to the full span — whose engine is
   *byte-identical* to the monolithic engine over the same DEM, so
   termination with the monolithic answer is unconditional.

Accepted sub-window answers report the same neighbour set (and
degraded/budget flags) a monolithic engine would: the separation test
proves the answer set is the unique true top-k.  Ties, degraded
results, unconverged rankings and budgeted queries always escalate to
the full window.  Reported intervals are adjusted to globally sound
bounds before a sub-window answer is returned.

Shard routing shows up in observability as one ``shard-query`` root
frame per query — profiled and traced like every phase, carrying the
expansion count — over ``shard-routing``, ``shard-build`` and the
window engines' ``query`` frames, plus ``shard.*`` metrics counters.
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from repro.core.engine import SurfaceKNNEngine
from repro.core.mr3 import QueryMetrics, QueryResult
from repro.core.objects import ObjectSet
from repro.errors import QueryError, SurfKnnError
from repro.obs.context import ObsContext, active_registry, current
from repro.obs.profile import Profile
from repro.shard.stitch import border_offsets, detour_lower_bounds, stitch_into
from repro.shard.tiles import TileGrid, TileSpan
from repro.storage.pages import BufferPool
from repro.storage.stats import IOStatistics, ThreadLocalIOStatistics
from repro.terrain.mesh import TriangleMesh


class _Window:
    """One built tile span: engine plus global<->local id maps."""

    __slots__ = (
        "span", "engine", "r0", "c0", "wcols",
        "object_gids", "in_window", "border_xy",
    )

    def __init__(self, span, engine, r0, c0, wcols, object_gids, in_window,
                 border_xy):
        self.span = span
        self.engine = engine
        self.r0 = r0
        self.c0 = c0
        self.wcols = wcols
        # Global object id per local object id (ascending, so the
        # full span maps every id to itself).
        self.object_gids = object_gids
        self.in_window = in_window  # bool mask over global object ids
        self.border_xy = border_xy  # interior border samples (B, 2)

    def local_vertex(self, r: int, c: int) -> int:
        return (r - self.r0) * self.wcols + (c - self.c0)


def uniform_grid_objects(dem, count: int, seed: int = 0) -> list[int]:
    """``count`` distinct global vertex ids sampled uniformly over the
    DEM grid — object placement for terrains too large to mesh
    monolithically (no ``nearest_vertex`` snap needed: every grid
    point *is* a vertex)."""
    total = dem.rows * dem.cols
    if count < 1 or count > total:
        raise QueryError(
            f"cannot place {count} objects on {total} grid points"
        )
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.choice(total, size=count, replace=False)]


class ShardedEngine:
    """Tile-sharded sk-NN engine with the monolithic answer contract.

    Parameters
    ----------
    dem:
        The :class:`~repro.terrain.dem.DemGrid` to shard.  The global
        mesh is *never* built; every structure lives per tile span.
    objects:
        Global vertex ids of the objects (``vertex = row * cols +
        col``).  Object id ``i`` is the i-th entry, exactly as an
        :class:`~repro.core.objects.ObjectSet` over the monolithic
        mesh would number the same list.
    grid:
        Tile grid shape, ``(tile_rows, tile_cols)`` or a single int
        for a square grid.  Clamped to what the DEM extent supports.
    buffer_pages:
        Capacity of the one :class:`~repro.storage.pages.BufferPool`
        all tile stores share (owner tokens keep their page ids from
        aliasing).
    engine_kwargs:
        Extra keyword arguments forwarded to every per-window
        :class:`~repro.core.engine.SurfaceKNNEngine` (``page_size``,
        ``steiner_per_edge``, ...).
    fault_injector_factory:
        Optional ``span -> FaultInjector`` callable giving each tile
        store its own injector (a shared injector is not thread-safe
        under parallel tile builds).
    obs:
        Optional :class:`~repro.obs.ObsContext`, active during every
        query and :meth:`warm`: routing, window builds (also those on
        the stitching pool) and the window queries report into it.
        Without it the ambient context applies.
    max_workers:
        Thread-pool width for the stitched neighbour builds, the only
        tile builds that run in parallel.
    """

    def __init__(
        self,
        dem,
        objects=None,
        grid=(2, 2),
        density: float = 4.0,
        seed: int = 0,
        buffer_pages: int = 1024,
        engine_kwargs: dict | None = None,
        fault_injector_factory=None,
        retry_policy=None,
        obs: ObsContext | None = None,
        max_workers: int = 4,
    ):
        self.dem = dem
        self.grid = TileGrid(dem, grid)
        self.obs = obs
        if objects is None:
            area_km2 = dem.area_km2
            count = max(1, int(round(density * area_km2)))
            objects = uniform_grid_objects(dem, count, seed)
        vids = np.asarray([int(v) for v in objects], dtype=np.int64)
        total = dem.rows * dem.cols
        if len(vids) == 0:
            raise QueryError("an object set needs at least one object")
        # Sort and compare neighbours: a plain np.unique would import
        # numpy.ma, a megabyte of module.
        ordered = np.sort(vids)
        if (ordered[1:] == ordered[:-1]).any():
            raise QueryError("object vertex ids must be distinct")
        if vids.min() < 0 or vids.max() >= total:
            raise QueryError("object vertex id out of range")
        self._obj_vids = vids
        self._obj_r, self._obj_c = np.divmod(vids, dem.cols)
        cell = dem.cell_size
        ox, oy = dem.origin
        xs = ox + self._obj_c * cell
        ys = oy + self._obj_r * cell
        zs = np.asarray(dem.heights, dtype=float)[self._obj_r, self._obj_c]
        self._obj_xyz = np.stack([xs, ys, zs], axis=1)
        self._engine_kwargs = dict(engine_kwargs or {})
        self._fault_injector_factory = fault_injector_factory
        self._retry_policy = retry_policy
        self._buffer = BufferPool(buffer_pages)
        self._windows: dict[TileSpan, _Window] = {}
        self._build_locks: dict[TileSpan, threading.Lock] = {}
        self._lock = threading.Lock()
        self._max_workers = max(1, int(max_workers))
        # Duck-type contract of the batch executor: per-query stats
        # live on the window engines (thread-local), there is no
        # engine-level page store, and health is per tile.
        self.stats = IOStatistics()
        self.pages = None
        self.health = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_objects(self) -> int:
        return len(self._obj_vids)

    @property
    def object_vertices(self) -> np.ndarray:
        """Global mesh vertex id per object id."""
        return self._obj_vids

    @property
    def windows_built(self) -> list[TileSpan]:
        with self._lock:
            return sorted(self._windows)

    def window_engine(self, span: TileSpan) -> SurfaceKNNEngine:
        """The (lazily built) engine of one tile span."""
        return self._window(span).engine

    # ------------------------------------------------------------------
    # tile builds
    # ------------------------------------------------------------------

    def warm(self, spans=None) -> list[TileSpan]:
        """Build tile engines up front, one after another on the
        calling thread.

        ``spans`` defaults to every single-tile span.  Returns the
        spans built (including ones that already existed)."""
        spans = list(spans) if spans is not None else self.grid.all_tile_spans()
        with self._scope(None):
            for span in spans:
                self._window(span)
        return spans

    def _scope(self, obs):
        """Activation of the per-call ``obs``, else the engine's;
        a no-op scope (the ambient context applies) without either."""
        ctx = obs if obs is not None else self.obs
        return ctx.activate() if ctx is not None else nullcontext()

    def _window(self, span: TileSpan) -> _Window:
        with self._lock:
            win = self._windows.get(span)
            if win is not None:
                return win
            lock = self._build_locks.setdefault(span, threading.Lock())
        with lock:
            with self._lock:
                win = self._windows.get(span)
                if win is not None:
                    return win
            win = self._build_window(span)
            with self._lock:
                self._windows[span] = win
            return win

    def _window_under(self, parent, span: TileSpan) -> _Window:
        """:meth:`_window` on a pool thread, its frames nested under
        ``parent``."""
        with current().nested_under(parent):
            return self._window(span)

    def _build_window(self, span: TileSpan) -> _Window:
        r0, r1, c0, c1 = self.grid.span_window(span)
        with current().phase(
            "shard-build",
            span=(span.t_r0, span.t_r1, span.t_c0, span.t_c1),
        ):
            dem_w = self.grid.window_dem(span)
            mesh_w = TriangleMesh.from_dem(dem_w)
            in_window = (
                (self._obj_r >= r0) & (self._obj_r <= r1)
                & (self._obj_c >= c0) & (self._obj_c <= c1)
            )
            gids = np.nonzero(in_window)[0]
            if len(gids) == 0:
                raise QueryError(
                    f"tile span {span} holds no objects; the router "
                    "must expand before building it"
                )
            wcols = c1 - c0 + 1
            local_vids = (
                (self._obj_r[gids] - r0) * wcols + (self._obj_c[gids] - c0)
            )
            objset = ObjectSet(mesh_w, [int(v) for v in local_vids])
            injector = (
                self._fault_injector_factory(span)
                if self._fault_injector_factory is not None
                else None
            )
            engine = SurfaceKNNEngine(
                mesh_w,
                objects=objset,
                buffer_pool=self._buffer,
                fault_injector=injector,
                retry_policy=self._retry_policy,
                **self._engine_kwargs,
            )
            # Window engines serve batch workers concurrently; the
            # executor only swaps the *sharded* engine's stats, so the
            # per-thread router is installed here instead.
            router = ThreadLocalIOStatistics()
            engine.stats = router
            if engine.pages is not None:
                engine.pages.stats = router
            active_registry().counter("shard.windows_built_total").add(1)
        return _Window(
            span, engine, r0, c0, wcols, gids, in_window,
            self.grid.window_border_xy(span),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def query(
        self,
        query_vertex: int,
        k: int,
        method: str = "mr3",
        step_length: int = 1,
        cold_cache: bool = True,
        obs: ObsContext | None = None,
        bound_cache=None,
        budget=None,
    ) -> QueryResult:
        """Answer an sk-NN query at a *global* mesh vertex.

        Same signature contract as
        :meth:`repro.core.engine.SurfaceKNNEngine.query`, so the batch
        executor drives either engine unchanged.  Ids in the result
        (query vertex, object ids, ``rest``) are global.
        """
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        if k > len(self._obj_vids):
            raise QueryError(
                f"k={k} exceeds the {len(self._obj_vids)} stored objects"
            )
        vertex = int(query_vertex)
        total = self.dem.rows * self.dem.cols
        if not 0 <= vertex < total:
            raise QueryError(
                f"query vertex {vertex} out of range [0, {total})"
            )
        with self._scope(obs):
            active = current()
            registry = active.registry
            qr, qc = divmod(vertex, self.dem.cols)
            cell = self.dem.cell_size
            q_xy = (
                self.dem.origin[0] + qc * cell,
                self.dem.origin[1] + qr * cell,
            )
            q_xyz = np.array(
                [q_xy[0], q_xy[1], float(self.dem.heights[qr, qc])]
            )
            full_span = self.grid.full_span()
            d3 = np.linalg.norm(self._obj_xyz - q_xyz[None, :], axis=1)
            with active.phase(
                "shard-query", query_vertex=vertex, k=k
            ) as root:
                with active.phase("shard-routing"):
                    span = self.grid.tile_span(self.grid.home_tile(*q_xy))
                    if budget is not None:
                        # Budget accounting spans the whole monolithic
                        # run; only the full window reproduces its
                        # exhaustion point and flags.
                        span = full_span
                    else:
                        # Seed the window from the k-th straight-line
                        # distance: the certified window must reach
                        # past the k-th surface distance with margin,
                        # and a query near a tile border would
                        # otherwise burn one doomed attempt on its
                        # home tile.
                        kth_d3 = float(np.partition(d3, k - 1)[k - 1])
                        radius = 2.0 * kth_d3 + 2.0 * cell
                        span = self.grid.union(
                            span,
                            self.grid.span_for_disk(q_xy[0], q_xy[1], radius),
                        )
                    span = self._grow_for_objects(span, k)
                expansions = 0
                stitched = False
                spent = []
                while True:
                    window = self._window(span)
                    local_q = window.local_vertex(qr, qc)
                    result = window.engine.query(
                        local_q,
                        k,
                        method=method,
                        step_length=step_length,
                        cold_cache=cold_cache,
                        bound_cache=bound_cache,
                        budget=budget,
                    )
                    spent.append(result.metrics)
                    if span == full_span:
                        # Local ids == global ids: the monolithic
                        # answer, byte for byte.
                        final = result
                        break
                    final = None
                    if result.converged and not result.degraded:
                        with active.phase("shard-routing"):
                            final = self._certify(
                                window, result, d3, q_xy, k
                            )
                    if final is not None:
                        break
                    expansions += 1
                    with active.phase("shard-routing"):
                        nxt = None
                        if not stitched:
                            stitched = True
                            nxt = self._stitched_span(
                                window, result, local_q, q_xy, k, span
                            )
                            if nxt is not None:
                                registry.counter(
                                    "shard.stitched_expansions_total"
                                ).add(1)
                        if nxt is None or not (
                            nxt != span and nxt.contains(span)
                        ):
                            nxt = self.grid.expand(span)
                        if nxt == span:
                            nxt = full_span
                        span = self._grow_for_objects(nxt, k)
                registry.counter("shard.queries_total").add(1)
                if expansions:
                    registry.counter("shard.expansions_total").add(expansions)
                if span == full_span and full_span.tile_count > 1:
                    registry.counter("shard.full_window_total").add(1)
                root.set_attribute("expansions", expansions)
                root.set_attribute(
                    "span", (span.t_r0, span.t_r1, span.t_c0, span.t_c1)
                )
                root.set_attribute("tiles", span.tile_count)
            # The sharded query's own root and costs, not the last
            # window query's.
            final = replace(
                final,
                metrics=QueryMetrics.total(spent),
                root_span=root.span,
                profile_data=(
                    Profile(root.node, label=f"shard/{final.method}/k={k}")
                    if root.node is not None
                    else None
                ),
            )
        return final

    def _grow_for_objects(self, span: TileSpan, k: int) -> TileSpan:
        """Smallest ring-expansion of the span holding >= k objects."""
        while True:
            r0, r1, c0, c1 = self.grid.span_window(span)
            count = int(
                (
                    (self._obj_r >= r0) & (self._obj_r <= r1)
                    & (self._obj_c >= c0) & (self._obj_c <= c1)
                ).sum()
            )
            if count >= k:
                return span
            grown = self.grid.expand(span)
            if grown == span:
                return span
            span = grown

    # ------------------------------------------------------------------
    # acceptance
    # ------------------------------------------------------------------

    def _certify(self, window, result, d3, q_xy, k):
        """The separation test: a sub-window answer is returned only
        when every non-answer object provably sits strictly beyond
        the k-th upper bound.

        For each non-winner object the globally sound lower bound is
        ``max(dE3d, min(window_lb, detour_lb))``: the straight line is
        always admissible; a global shortest path either stays inside
        the window (so the window engine's lower bound applies) or
        crosses the border (so the detour bound applies).  Strict
        separation makes the winner set the *unique* true top-k —
        exactly what a converged monolithic run returns.  Ties fail
        the strict test and escalate.  Returns the remapped global
        result on success, None on rejection.
        """
        intervals = result.intervals
        kth_ub = max(ub for _lb, ub in intervals)
        winners_global = [
            int(window.object_gids[lid]) for lid in result.object_ids
        ]
        n = len(self._obj_vids)
        winner_mask = np.zeros(n, dtype=bool)
        winner_mask[winners_global] = True
        contender_mask = (~winner_mask) & (d3 <= kth_ub)
        need = np.nonzero(contender_mask | winner_mask)[0]
        detour = detour_lower_bounds(
            q_xy, window.border_xy, self._obj_xyz[need, :2],
            self.dem.cell_size,
        )
        detour_of = dict(zip(need.tolist(), detour.tolist()))
        window_lb = {
            int(window.object_gids[lid]): float(lb)
            for lid, lb in result.rest
        }
        for gid in np.nonzero(contender_mask)[0]:
            gid = int(gid)
            inside = (
                window_lb.get(gid, np.inf)
                if window.in_window[gid]
                else np.inf
            )
            glb = max(d3[gid], min(inside, detour_of[gid]))
            if not glb > kth_ub:
                return None
        new_intervals = []
        for gid, (lb, ub) in zip(winners_global, intervals):
            glb = max(float(d3[gid]), min(float(lb), detour_of[gid]))
            new_intervals.append((min(glb, ub), ub))
        return replace(
            result,
            query_vertex=self._global_vertex_of(window, result.query_vertex),
            object_ids=winners_global,
            intervals=new_intervals,
            rest=tuple(
                (int(window.object_gids[lid]), lb) for lid, lb in result.rest
            ),
        )

    def _global_vertex_of(self, window, local_vertex: int) -> int:
        lr, lc = divmod(int(local_vertex), window.wcols)
        return (lr + window.r0) * self.dem.cols + (lc + window.c0)

    # ------------------------------------------------------------------
    # stitched expansion
    # ------------------------------------------------------------------

    def _stitched_span(self, window, result, local_q, q_xy, k, span):
        """Pick the next window by boundary-anchor stitching.

        Builds the adjacent tiles (in parallel), stitches genuine
        cross-tile upper bounds through the shared border vertices,
        takes the k-th smallest known upper bound U*, and returns the
        span covering the xy disk of radius U* — the one-shot window
        that usually certifies immediately.  None when stitching
        cannot improve on ring expansion.
        """
        neighbours = self.grid.neighbours(span)
        if not neighbours:
            return None
        # Only neighbours that hold objects can contribute bounds
        # (and only they can be built — an engine needs objects).
        populated = []
        for nb in neighbours:
            r0, r1, c0, c1 = self.grid.span_window(self.grid.tile_span(nb))
            has = (
                (self._obj_r >= r0) & (self._obj_r <= r1)
                & (self._obj_c >= c0) & (self._obj_c <= c1)
            ).any()
            if has:
                populated.append(nb)
        if not populated:
            return None
        try:
            if len(populated) > 1:
                # Pool threads start with an empty context; each build
                # runs in its own copy of this one, so its spans and
                # counters land in the query's ObsContext, its spans
                # under the frame waiting here.
                contexts = [contextvars.copy_context() for _ in populated]
                parent = current().current_frame()
                with ThreadPoolExecutor(
                    max_workers=self._max_workers
                ) as pool:
                    nb_windows = list(
                        pool.map(
                            lambda context, nb: context.run(
                                self._window_under, parent, self.grid.tile_span(nb)
                            ),
                            contexts,
                            populated,
                        )
                    )
            else:
                nb_windows = [
                    self._window(self.grid.tile_span(populated[0]))
                ]
            best_ub: dict[int, float] = {}
            for lid, (_lb, ub) in zip(result.object_ids, result.intervals):
                best_ub[int(window.object_gids[lid])] = float(ub)
            for nb, nbw in zip(populated, nb_windows):
                shared = self.grid.shared_border_vertices(span, nb)
                if not shared:
                    continue
                home_vids = [window.local_vertex(r, c) for r, c in shared]
                offsets = border_offsets(window.engine, local_q, home_vids)
                anchors = []
                for (r, c), hv in zip(shared, home_vids):
                    off = offsets.get(hv)
                    if off is not None:
                        anchors.append((nbw.local_vertex(r, c), off))
                if not anchors:
                    continue
                targets = nbw.engine.objects.vertex_ids
                values = stitch_into(nbw.engine, anchors, targets)
                for lid, vid in enumerate(targets):
                    value = values.get(int(vid))
                    if value is None:
                        continue
                    gid = int(nbw.object_gids[lid])
                    if gid not in best_ub or value < best_ub[gid]:
                        best_ub[gid] = value
        except SurfKnnError:
            return None
        if len(best_ub) < k:
            return None
        u_star = sorted(best_ub.values())[k - 1]
        if not np.isfinite(u_star):
            return None
        radius = 1.05 * u_star + 3.0 * self.dem.cell_size
        disk = self.grid.span_for_disk(q_xy[0], q_xy[1], radius)
        return self.grid.union(span, disk)
