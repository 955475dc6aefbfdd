"""The public facade: build everything once, query many times.

:class:`SurfaceKNNEngine` owns the full stack the paper describes —
terrain mesh, DMTM, MSDN, object set with its 2D index, the simulated
paged storage — and exposes sk-NN queries by method:

* ``method="mr3"`` with ``step_length`` 1, 2 or 3 — the paper's
  algorithm at the three evaluated resolution step lengths;
* ``method="ea"`` — the Enhanced Approximation benchmark (same
  filters, no multiresolution);
* ``method="exact"`` — ground truth via exact geodesics.

Example
-------
>>> from repro import bearhead_like
>>> from repro.core import SurfaceKNNEngine
>>> engine = SurfaceKNNEngine.from_dem(bearhead_like(size=33), density=4)
>>> result = engine.query_xy(2000.0, 3000.0, k=3)
>>> len(result.object_ids)
3
"""

from __future__ import annotations

import operator
import time
from contextlib import nullcontext
from functools import partial

from repro.core.baseline import exact_knn
from repro.core.budget import QueryBudget
from repro.core.health import EngineHealth
from repro.core.mr3 import MR3QueryProcessor, QueryMetrics, QueryResult
from repro.core.objects import ObjectSet
from repro.core.ranking import DistanceRanker, RankerOptions
from repro.core.schedule import ResolutionSchedule
from repro.errors import QueryError
from repro.geodesic.landmarks import LandmarkIndex
from repro.msdn.msdn import MSDN
from repro.multires.dmtm import DMTM
from repro.obs.context import ObsContext, current
from repro.obs.profile import Profile
from repro.storage.pages import PageManager
from repro.storage.stats import DiskModel, IOStatistics
from repro.terrain.mesh import TriangleMesh

#: Stateless, reusable stand-in for ``ctx.activate()`` when the
#: engine carries no ObsContext (the ambient context then applies).
_NULL_SCOPE = nullcontext()


class SurfaceKNNEngine:
    """End-to-end surface k-NN query engine.

    Parameters
    ----------
    mesh:
        The terrain surface.
    objects:
        An :class:`ObjectSet`; built uniformly at ``density``/km²
        when omitted.
    density, seed:
        Uniform object generation parameters (ignored when
        ``objects`` is given).
    page_size, buffer_pages:
        Simulated storage geometry.  The default buffer is small
        relative to the structures on purpose: "pages accessed"
        should reflect region fetches, as in the paper's Oracle runs.
    steiner_per_edge:
        Pathnet density of the DMTM's 200 % level (paper: 1).
    msdn_spacing, msdn_supersample:
        MSDN plane interval (default: mean edge length) and crossing
        line supersampling (see DESIGN.md).
    disk:
        Cost model converting pages into simulated I/O seconds.
    with_storage:
        Attach the paged storage layer (disable for pure-CPU runs).
    obs:
        Optional :class:`repro.obs.ObsContext` carried by the engine,
        the one way to turn telemetry on.  Every query then runs with
        that context *active*: its metrics land in ``obs.registry``
        (not the process-wide default); with ``tracing=True`` every
        result carries its span tree (``QueryResult.root_span``, also
        in ``obs.finished_spans()``), and with ``profiling=True`` a
        phase profile (``QueryResult.profile()``, also in
        ``obs.finished_profiles()``).  Without ``obs``
        the engine reports into whatever context is active at call
        time (the process-wide default when none is).
    buffer_pool:
        Optional :class:`repro.storage.pages.BufferPool` to cache
        pages through — pass one pool to several engines to share one
        LRU across engines and threads.  By default the engine keeps
        a private pool of ``buffer_pages``.
    fault_injector:
        Optional :class:`repro.storage.FaultInjector` attached to the
        simulated disk — reads then see the injector's seeded schedule
        of transient errors, corruption and latency spikes, and the
        page manager's CRC + retry machinery recovers.  A read that
        still fails does not fail ``query``, ``query_point`` or
        ``range_query``: the ranker skips that bound pass, and the
        answer comes back ``degraded=True`` with
        ``degraded_reason="storage"`` (a range result comes back
        unconverged).  With no injector the read path is
        byte-identical to a fault-free engine.
    retry_policy:
        :class:`repro.storage.RetryPolicy` governing fault retries
        (default: 4 attempts, exponential simulated backoff).
    landmarks:
        Optional ALT-style landmark lower bounds
        (:mod:`repro.geodesic.landmarks`).  An integral count builds a
        :class:`~repro.geodesic.landmarks.LandmarkIndex` with that
        many farthest-point landmarks; a prebuilt index over a mesh
        with this mesh's vertex count is used as-is; ``None``
        (default) keeps every query bit-identical to a landmark-free
        engine.  Anything else raises :class:`QueryError`.  With
        landmarks on, the returned neighbour sets and degraded/error
        reporting are unchanged — only the intervals may tighten and
        less work is done (see docs/performance.md, "Landmark
        bounds").
    """

    def __init__(
        self,
        mesh: TriangleMesh,
        objects: ObjectSet | None = None,
        density: float = 4.0,
        seed: int = 0,
        page_size: int = 2048,
        buffer_pages: int = 64,
        steiner_per_edge: int = 1,
        msdn_spacing: float | None = None,
        msdn_supersample: int = 8,
        disk: DiskModel | None = None,
        with_storage: bool = True,
        obs: ObsContext | None = None,
        buffer_pool=None,
        fault_injector=None,
        retry_policy=None,
        landmarks=None,
    ):
        self.mesh = mesh
        self.obs = obs
        self.objects = (
            objects
            if objects is not None
            else ObjectSet.uniform(mesh, density, seed)
        )
        self.dmtm = DMTM(mesh, steiner_per_edge=steiner_per_edge)
        self.msdn = MSDN(
            mesh, spacing=msdn_spacing, supersample=msdn_supersample
        )
        self.stats = IOStatistics()
        self.disk = disk if disk is not None else DiskModel()
        self.pages: PageManager | None = None
        if with_storage:
            self.pages = PageManager(
                page_size=page_size,
                buffer_pages=buffer_pages,
                stats=self.stats,
                buffer=buffer_pool,
                fault_injector=fault_injector,
                retry_policy=retry_policy,
            )
            self.dmtm.attach_storage(self.pages)
            self.msdn.attach_storage(self.pages)
        self.landmarks = self._resolve_landmarks(landmarks)
        self.health = EngineHealth(self)

    def _resolve_landmarks(self, landmarks):
        if landmarks is None or landmarks is False:
            return None
        if isinstance(landmarks, LandmarkIndex):
            if landmarks.surface.shape[1] != self.mesh.num_vertices:
                raise QueryError(
                    f"landmark index has {landmarks.surface.shape[1]} table "
                    f"columns, but the mesh has {self.mesh.num_vertices} "
                    "vertices"
                )
            return landmarks
        try:
            count = operator.index(landmarks)
        except TypeError:
            count = None
        if count is None or isinstance(landmarks, bool):
            raise QueryError(
                "landmarks must be an int count or a LandmarkIndex, "
                f"got {landmarks!r}"
            )
        return LandmarkIndex.build(self.mesh, count=count)

    def with_landmarks(self, landmarks) -> "SurfaceKNNEngine":
        """A shallow clone of this engine with landmark bounds
        attached (or detached, with ``None``).

        Mesh, DMTM, MSDN, object set, storage and stats are *shared*
        with the original — only the landmark index differs — so
        attaching landmarks to an already-built engine costs just the
        index build.  ``landmarks`` is validated as in the
        constructor.  Metrics consumers take per-query deltas, which
        the shared ``stats`` keeps correct.
        """
        import copy

        clone = copy.copy(self)
        clone.landmarks = clone._resolve_landmarks(landmarks)
        return clone

    @classmethod
    def from_dem(cls, dem, **kwargs) -> "SurfaceKNNEngine":
        """Build an engine directly from a :class:`DemGrid`."""
        return cls(TriangleMesh.from_dem(dem), **kwargs)

    def set_objects(self, objects: ObjectSet | None = None, density: float = 4.0, seed: int = 0) -> None:
        """Swap the object set while keeping DMTM/MSDN/storage.

        Density sweeps (Fig. 11) change only the objects; the terrain
        structures are pre-created once, as in the paper.
        """
        self.objects = (
            objects
            if objects is not None
            else ObjectSet.uniform(self.mesh, density, seed)
        )

    # ------------------------------------------------------------------
    # query entry points
    # ------------------------------------------------------------------

    def snap(self, x: float, y: float) -> int:
        """Nearest mesh vertex to a horizontal position."""
        return self.mesh.nearest_vertex((x, y))

    def _validate_query_args(self, query_vertex: int | None, k: int | None) -> None:
        """Reject malformed query arguments up front, with messages
        naming the offending value — before any storage or ranking
        work starts.  ``None`` skips a check."""
        if k is not None:
            if k <= 0:
                raise QueryError(f"k must be >= 1, got {k}")
            if k > len(self.objects):
                raise QueryError(
                    f"k={k} exceeds the {len(self.objects)} stored objects"
                )
        if query_vertex is not None and not (
            0 <= int(query_vertex) < self.mesh.num_vertices
        ):
            raise QueryError(
                f"query vertex {query_vertex} out of range "
                f"[0, {self.mesh.num_vertices})"
            )

    def _scoped(
        self, run, obs, vertex, cold_cache, label, entry, attributes
    ) -> QueryResult:
        """Run ``run()``, the body of one query entry point, under the
        query's telemetry scope.  Every entry point goes through here.

        Rejects an out-of-range ``vertex``, then activates the per-call
        ``obs``, else the engine's, else keeps the ambient context.  A
        ``cold_cache`` query drops the buffer first.  The body runs
        under one ``query`` frame carrying the ``entry`` point's name,
        its ``attributes`` and the answered query vertex; the frame's
        span and profile are attached to the result, which then feeds
        :meth:`_observe`."""
        self._validate_query_args(vertex, None)
        ctx = obs if obs is not None else self.obs
        with ctx.activate() if ctx is not None else _NULL_SCOPE:
            active = current()
            if cold_cache and self.pages is not None:
                self.pages.drop_buffer()
            with active.phase("query", entry=entry, **attributes) as frame:
                result = run()
                frame.set_attribute("query_vertex", result.query_vertex)
            result.root_span = frame.span
            if frame.node is not None:
                result.profile_data = Profile(frame.node, label=label)
            self._observe(result, active.registry)
        return result

    def _processor(self, schedule, options, bound_cache=None) -> MR3QueryProcessor:
        return MR3QueryProcessor(
            self.mesh,
            self.dmtm,
            self.msdn,
            self.objects,
            schedule,
            options=options,
            stats=self.stats,
            disk=self.disk,
            bound_cache=bound_cache,
            landmarks=self.landmarks,
        )

    def query(
        self,
        query_vertex: int,
        k: int,
        method: str = "mr3",
        step_length: int = 1,
        integrate_io: bool = True,
        use_refined_region: bool = True,
        use_dummy_lb: bool = True,
        cold_cache: bool = True,
        obs: ObsContext | None = None,
        bound_cache=None,
        budget: QueryBudget | None = None,
    ) -> QueryResult:
        """Answer an sk-NN query at a mesh vertex.

        ``cold_cache`` drops the buffer pool first, so every query is
        measured from a cold start (the paper reports per-query page
        counts).  ``obs`` overrides the engine's
        :class:`~repro.obs.ObsContext` for this one query — the query
        runs with it active, so its metrics, its span tree and its
        phase profile (when enabled) stay scoped to that context (the
        batch executor gives every query its own).  ``bound_cache`` is
        an optional :class:`repro.core.batch.BoundCache` sharing bound
        computations across queries without changing any answer.

        ``budget`` optionally caps the query's logical page reads
        and/or wall-clock seconds
        (:class:`repro.core.budget.QueryBudget`).  Exhaustion degrades
        gracefully: the result comes back ``degraded=True`` with sound
        intervals and a per-query ``max_error`` instead of raising.
        """
        self._validate_query_args(None, k)
        attributes = {"method": method, "k": k}
        if method == "exact":
            name = "exact"
            run = partial(
                self._exact, name, query_vertex, k,
                exact_knn, self.mesh, self.objects, query_vertex, k,
            )
        elif method in ("mr3", "ea"):
            schedule = ResolutionSchedule.preset(
                step_length if method == "mr3" else "ea"
            )
            name = method if method == "ea" else f"mr3/{schedule.name}"
            attributes["cold_cache"] = cold_cache
            attributes["schedule"] = schedule.name
            options = RankerOptions(
                integrate_io=integrate_io,
                use_refined_region=use_refined_region,
                use_dummy_lb=use_dummy_lb,
            )
            processor = self._processor(schedule, options, bound_cache)

            def run():
                result = processor.query(query_vertex, k, budget=budget)
                result.method = name
                return result
        else:
            raise QueryError(
                f"unknown method {method!r}; use 'mr3', 'ea' or 'exact'"
            )
        return self._scoped(
            run, obs, query_vertex, cold_cache, f"{name}/k={k}",
            "query", attributes,
        )

    def _observe(self, result: QueryResult, registry) -> None:
        """Feed the resolved context's metrics registry from a
        finished query."""
        registry.counter(f"engine.queries.{result.method}").add(1)
        registry.histogram("engine.query.cpu_seconds").observe(
            result.metrics.cpu_seconds
        )
        registry.histogram(
            "engine.query.pages_accessed",
            buckets=(1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000),
        ).observe(result.metrics.pages_accessed)
        if result.degraded:
            registry.counter("engine.queries.degraded").add(1)
            registry.counter(
                "engine.queries.degraded."
                f"{result.degraded_reason or 'budget'}"
            ).add(1)
            registry.histogram("engine.query.max_error").observe(
                result.max_error
            )

    def query_xy(self, x: float, y: float, k: int, **kwargs) -> QueryResult:
        """Convenience: query at the vertex nearest (x, y)."""
        return self.query(self.snap(x, y), k, **kwargs)

    def query_point(
        self,
        x: float,
        y: float,
        k: int,
        method: str = "mr3",
        step_length: int = 1,
        cold_cache: bool = True,
        budget: QueryBudget | None = None,
        **ranker_opts,
    ) -> QueryResult:
        """sk-NN at an *arbitrary* surface point, via the paper's
        embedding step (§3.2): the point is anchored to its facet's
        vertices by in-facet segments, so every reported bound remains
        a genuine surface path length."""
        from repro.core.embedding import embed_point

        self._validate_query_args(None, k)
        query = embed_point(self.mesh, x, y)
        if isinstance(query, int):
            return self.query(
                query, k, method=method, step_length=step_length,
                cold_cache=cold_cache, budget=budget, **ranker_opts,
            )
        if method != "mr3":
            raise QueryError("embedded-point queries support method='mr3'")
        schedule = ResolutionSchedule.preset(step_length)
        processor = self._processor(schedule, RankerOptions(**ranker_opts))
        name = f"mr3/{schedule.name}"

        def run():
            result = processor.query(query, k, budget=budget)
            result.method = name
            return result

        return self._scoped(
            run, None, None, cold_cache, f"embedded/k={k}", "query_point",
            {"method": method, "k": k, "cold_cache": cold_cache,
             "schedule": schedule.name},
        )

    def _exact(self, method, query_vertex, k, search, *args) -> QueryResult:
        """The result of an exact ``search(*args)`` returning
        ``(object, distance)`` pairs: point intervals, CPU time only."""
        cpu_start = time.process_time()
        pairs = search(*args)
        metrics = QueryMetrics(cpu_seconds=time.process_time() - cpu_start)
        return QueryResult(
            query_vertex=query_vertex,
            k=k,
            object_ids=[obj for obj, _d in pairs],
            intervals=[(d, d) for _obj, d in pairs],
            metrics=metrics,
            method=method,
        )

    def range_query(
        self,
        query_vertex: int,
        radius: float,
        step_length: int = 1,
        cold_cache: bool = True,
    ) -> QueryResult:
        """Surface range query: all objects within ``radius`` of the
        query *by surface distance* (the paper's §6 extension).

        Correctness of the 2D prefilter: ``dS >= dE >= dE_xy``, so any
        object whose xy-projection is farther than ``radius`` cannot
        be inside.
        """
        if radius < 0:
            raise QueryError("radius must be non-negative")
        schedule = ResolutionSchedule.preset(step_length)

        def run():
            io_before = self.stats.snapshot()
            cpu_start = time.process_time()
            ranker = DistanceRanker(
                self.mesh, self.dmtm, self.msdn, schedule,
                stats=self.stats, landmarks=self.landmarks,
            )
            q_xy = self.mesh.vertices[query_vertex][:2]
            candidate_ids = self.objects.range_2d(q_xy, radius)
            candidates = ranker.make_candidates(candidate_ids, self.objects)
            inside, certain = ranker.rank_within(
                query_vertex, candidates, radius
            )
            cpu_seconds = time.process_time() - cpu_start
            metrics = QueryMetrics.from_io(
                self.stats.delta_since(io_before), self.disk,
                cpu_seconds=cpu_seconds,
                candidates_examined=len(candidates),
            )
            return QueryResult(
                query_vertex=query_vertex,
                k=len(inside),
                object_ids=[c.object_id for c in inside],
                intervals=[(c.lb, c.ub) for c in inside],
                metrics=metrics,
                method="surface-range",
                converged=certain,
            )

        return self._scoped(
            run, None, query_vertex, cold_cache, f"surface-range/r={radius:g}",
            "range_query", {"radius": radius},
        )

    def closest_pair(self, step_length: int = 2) -> tuple[tuple[int, int], tuple[float, float]]:
        """Closest object pair by surface distance (paper §6).

        Returns ``((obj_a, obj_b), (lb, ub))``.
        """
        from repro.core.pairs import surface_closest_pair

        return surface_closest_pair(
            self.mesh,
            self.dmtm,
            self.msdn,
            self.objects,
            ResolutionSchedule.preset(step_length),
        )

    def obstacle_query(
        self,
        query_vertex: int,
        k: int,
        forbidden_faces=None,
        max_slope_deg: float | None = None,
    ) -> QueryResult:
        """Obstacle-constrained sk-NN (the paper's future-work
        extension): neighbours by surface distance along paths that
        avoid the given faces and/or any face steeper than
        ``max_slope_deg``.  Unreachable objects are simply not
        returned."""
        from repro.core.obstacles import obstacle_knn, steep_faces

        forbidden = set(forbidden_faces) if forbidden_faces else set()
        if max_slope_deg is not None:
            forbidden |= steep_faces(self.mesh, max_slope_deg)
        run = partial(
            self._exact, "obstacle", query_vertex, k,
            obstacle_knn, self.mesh, self.objects, query_vertex, k, forbidden,
        )
        # The search runs on the mesh alone and reads no pages.
        return self._scoped(
            run, None, query_vertex, False, f"obstacle/k={k}",
            "obstacle_query", {"k": k},
        )

    # ------------------------------------------------------------------
    # analysis helpers (Fig. 8 and docs)
    # ------------------------------------------------------------------

    def distance_range(
        self,
        vertex_a: int,
        vertex_b: int,
        dmtm_resolution: float,
        msdn_resolution: float,
        roi=None,
    ) -> tuple[float, float]:
        """(lb, ub) between two vertices at one resolution pair —
        the quantity behind the paper's accuracy measure ε = lb/ub."""
        ub_res = self.dmtm.upper_bound(vertex_a, vertex_b, dmtm_resolution, roi=roi)
        if ub_res is None:
            raise QueryError("upper bound not computable over this region")
        lb_res = self.msdn.lower_bound(
            self.mesh.vertices[vertex_a],
            self.mesh.vertices[vertex_b],
            msdn_resolution,
            roi=roi,
        )
        return lb_res.value, ub_res.value
