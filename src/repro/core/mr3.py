"""Algorithm MR3 — Multi-Resolution Range Ranking (paper §4.1).

The four steps:

1. **2D k-NN query** — the k objects whose xy-projections are nearest
   the query projection q' (R-tree best-first over ``Dxy``);
2. **surface distance calculation** — rank those k candidates with
   the multiresolution :class:`DistanceRanker` to obtain the k-th
   neighbour's (tight) upper bound ub(q, b);
3. **2D range query** — all objects whose projections are within
   ub(q, b) of q'.  Correctness: any object outside that circle has
   ``dS >= dE >= dE_xy > ub(q, b)`` while k objects already beat
   ub(q, b);
4. **surface distance ranking** — rank the step-3 candidate set until
   ``ub(p_k) <= lb(p_{k+1})``.

Bounds computed in step 2 are reused in step 4 (the two steps run the
same ranker over overlapping candidate sets).
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.bounds import Candidate
from repro.core.budget import QueryBudget
from repro.core.embedding import EmbeddedQuery, source_of
from repro.core.ranking import DistanceRanker, RankerOptions
from repro.errors import QueryError
from repro.geodesic.deadline import deadline_scope
from repro.obs.context import current
from repro.obs.tracing import Span
from repro.storage.stats import DiskModel, IOStatistics


@dataclass
class QueryMetrics:
    """Per-query costs, mirroring the paper's reported series.

    ``pages_accessed`` counts buffer-pool misses (the paper's
    observable); ``logical_reads`` counts every page request, so warm
    runs (``cold_cache=False``) are distinguishable from cold ones
    through ``buffer_hit_rate``.  ``reads_by_class`` splits the
    physical reads per structure (dmtm / msdn).
    """

    cpu_seconds: float = 0.0
    io_seconds: float = 0.0
    pages_accessed: int = 0
    logical_reads: int = 0
    reads_by_class: dict = field(default_factory=dict)
    iterations_filter: int = 0
    iterations_ranking: int = 0
    candidates_examined: int = 0

    @classmethod
    def from_io(cls, delta: IOStatistics, disk: DiskModel, **fields) -> "QueryMetrics":
        """Metrics whose I/O fields come from one query's
        :class:`~repro.storage.stats.IOStatistics` delta: pages
        accessed, logical reads, physical reads by class and the
        simulated I/O time ``disk`` charges for them."""
        return cls(
            pages_accessed=delta.physical_reads,
            logical_reads=delta.logical_reads,
            reads_by_class=delta.physical_by_class,
            io_seconds=disk.io_seconds(delta),
            **fields,
        )

    @classmethod
    def total(cls, parts) -> "QueryMetrics":
        """The costs of several queries answered as one (the window
        queries of a sharded query): every field is the sum over
        ``parts``, ``reads_by_class`` class by class."""
        out = cls()
        for part in parts:
            for item in dataclasses.fields(cls):
                mine = getattr(out, item.name)
                theirs = getattr(part, item.name)
                if isinstance(mine, dict):
                    for key, value in theirs.items():
                        mine[key] = mine.get(key, 0) + value
                else:
                    setattr(out, item.name, mine + theirs)
        return out

    @property
    def total_seconds(self) -> float:
        """Total cost = CPU + simulated disk time (Figs 10-11 (a)/(d))."""
        return self.cpu_seconds + self.io_seconds

    @property
    def buffer_hit_rate(self) -> float:
        """Fraction of this query's page requests served by the
        buffer pool (0.0 when the query issued no reads)."""
        if self.logical_reads == 0:
            return 0.0
        return 1.0 - self.pages_accessed / self.logical_reads


@dataclass
class QueryResult:
    """Outcome of one sk-NN query."""

    query_vertex: int
    k: int
    object_ids: list[int]
    intervals: list[tuple[float, float]]
    metrics: QueryMetrics = field(default_factory=QueryMetrics)
    method: str = "mr3"
    converged: bool = True
    # EXPLAIN traces of the two ranking phases: one typed
    # repro.obs.events.LevelEvent per resolution level.
    filter_trace: list = field(default_factory=list)
    ranking_trace: list = field(default_factory=list)
    # Root tracing span of the query (repro.obs.tracing.Span) when it
    # ran under a tracing ObsContext; None otherwise.  Set by the
    # engine entry point that opened the query's root frame.
    root_span: Span | None = None
    # Anytime contract: True when a query budget stopped refinement
    # early.  The answer is then the best-known top-k by upper bound
    # and ``max_error`` bounds how far the reported k-th distance can
    # sit above the true one (0.0 for exact answers).  Degraded
    # results are never an exception — intervals stay sound.
    degraded: bool = False
    max_error: float = 0.0
    budget_reason: str | None = None
    # Why the answer is degraded: "budget" (a QueryBudget stopped
    # refinement), "storage" (a page read failed and a redundant
    # bound source was substituted), or None for exact answers.
    degraded_reason: str | None = None
    # Phase profile of the query (repro.obs.profile.Profile) when it
    # ran under a profiling ObsContext; None otherwise.
    profile_data: object | None = None
    # Non-winner step-4 candidates as ``(object_id, lower_bound)``
    # pairs.  Every object whose straight-line distance could beat the
    # reported k-th upper bound appears here (the step-3 circle
    # contains all such objects), so a caller holding the result can
    # certify separation of the answer set from the rest of the
    # dataset — the sharded engine's acceptance test.
    rest: tuple = ()

    def profile(self):
        """The query's phase profile (:class:`repro.obs.Profile`), or
        ``None`` when profiling was not enabled.  ``render_tree()`` on
        the returned object prints the flamegraph-style breakdown;
        ``to_record()`` exports the ``repro.profile/v1`` JSON."""
        return self.profile_data

    def explain(self) -> str:
        """Human-readable account of how the query was answered."""
        from repro.obs.export import render

        return render(self)

    def trace_record(self) -> dict:
        """JSONL-ready export of this query's trace (events, metrics
        and spans) — see :func:`repro.obs.export.query_record`."""
        from repro.obs.export import query_record

        return query_record(self)

    def __post_init__(self):
        if len(self.object_ids) != len(self.intervals):
            raise QueryError("object/interval count mismatch")


class MR3QueryProcessor:
    """Executes sk-NN queries over pre-built DMTM/MSDN structures."""

    def __init__(
        self,
        mesh,
        dmtm,
        msdn,
        objects,
        schedule,
        options: RankerOptions | None = None,
        stats: IOStatistics | None = None,
        disk: DiskModel | None = None,
        bound_cache=None,
        landmarks=None,
    ):
        self.mesh = mesh
        self.objects = objects
        self.schedule = schedule
        self.ranker = DistanceRanker(
            mesh, dmtm, msdn, schedule, options, stats=stats,
            bound_cache=bound_cache, landmarks=landmarks,
        )
        self.stats = stats
        self.disk = disk if disk is not None else DiskModel()

    def query(
        self, query, k: int, budget: QueryBudget | None = None
    ) -> QueryResult:
        """Answer the sk-NN query at a mesh vertex or an
        :class:`repro.core.embedding.EmbeddedQuery` point.

        ``budget`` optionally bounds the query's resources
        (:class:`repro.core.budget.QueryBudget`).  An exhausted budget
        degrades gracefully: refinement stops at the current
        resolution and the result carries ``degraded=True`` plus a
        sound ``max_error`` — it never raises.
        """
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        if isinstance(query, EmbeddedQuery):
            query_vertex = min(query.anchors, key=lambda a: a[1])[0]
        else:
            if not 0 <= query < self.mesh.num_vertices:
                raise QueryError(f"query vertex {query} out of range")
            query_vertex = int(query)
        if k > len(self.objects):
            raise QueryError(
                f"k={k} exceeds the {len(self.objects)} stored objects"
            )
        io_before = self.stats.snapshot() if self.stats is not None else None
        cpu_start = time.process_time()
        tracker = (
            budget.tracker(self.stats)
            if budget is not None and not budget.unlimited
            else None
        )

        scope = (
            deadline_scope(tracker.deadline)
            if tracker is not None and tracker.deadline is not None
            else nullcontext()
        )
        obs = current()
        with scope:
            q_pos, anchors = source_of(self.mesh, query)
            q_xy = q_pos[:2]

            # Step 1: 2D k-NN filter.
            with obs.phase("spatial-filter", step=1, k=k) as frame:
                c1_ids = self.objects.knn_2d(q_xy, k)
                frame.set_attribute("candidates", len(c1_ids))

            # Step 2: rank C1 to get a tight ub for the k-th neighbour.
            cands1 = self.ranker.make_candidates(c1_ids, self.objects)
            out1 = self.ranker.rank(
                query,
                cands1,
                k,
                tighten_kth=self.ranker.options.filter_tighten,
                phase="filter",
                budget=tracker,
                min_levels=1,
            )
            radius = out1.kth_ub
            if not math.isfinite(radius):
                if not out1.storage_degraded:
                    raise QueryError(
                        "could not bound the k-th neighbour; "
                        "is the terrain connected?"
                    )
                radius = self._conservative_radius(anchors, cands1, k)

            # Step 3: 2D range query with the step-2 radius.
            with obs.phase("spatial-filter", step=3, radius=radius) as frame:
                c2_ids = self.objects.range_2d(q_xy, radius)
                frame.set_attribute("candidates", len(c2_ids))

            # Step 4: rank C2, reusing the intervals from step 2.
            known: dict[int, Candidate] = {c.object_id: c for c in cands1}
            cands2 = [
                known.get(obj)
                or self.ranker.make_candidates([obj], self.objects)[0]
                for obj in c2_ids
            ]
            out2 = self.ranker.rank(
                query, cands2, k, phase="ranking",
                budget=tracker, min_levels=0,
            )

        fields = dict(
            cpu_seconds=time.process_time() - cpu_start,
            iterations_filter=out1.iterations,
            iterations_ranking=out2.iterations,
            candidates_examined=len(cands2),
        )
        metrics = (
            QueryMetrics.from_io(
                self.stats.delta_since(io_before), self.disk, **fields
            )
            if io_before is not None
            else QueryMetrics(**fields)
        )

        winners = out2.winners
        budget_degraded = (
            out1.budget_exhausted or out2.budget_exhausted
        ) and not out2.converged
        storage_degraded = out1.storage_degraded or out2.storage_degraded
        degraded = budget_degraded or storage_degraded
        degraded_reason = (
            "storage" if storage_degraded
            else ("budget" if degraded else None)
        )
        max_error = 0.0
        if degraded and winners:
            # Sound per-query error bound for the anytime answer.  The
            # true k-th distance d_k is (a) at most the k-th reported
            # upper bound (each reported object's true distance is at
            # most its ub) and (b) at least the k-th smallest lower
            # bound over the whole step-4 candidate set (which
            # contains the true k-NN: the step-3 radius is a genuine
            # upper bound on d_k even when the filter was truncated).
            # The reported answer therefore overshoots d_k by at most
            # kth_ub - kth_lb.
            lbs = sorted(c.lb for c in out2.all_candidates)
            kth_lb = lbs[k - 1] if len(lbs) >= k else 0.0
            max_error = max(0.0, winners[-1].ub - kth_lb)
        winner_ids = {c.object_id for c in winners}
        rest = tuple(
            sorted(
                (c.object_id, float(c.lb))
                for c in out2.all_candidates
                if c.object_id not in winner_ids
            )
        )
        return QueryResult(
            query_vertex=query_vertex,
            k=k,
            object_ids=[c.object_id for c in winners],
            intervals=[(c.lb, c.ub) for c in winners],
            metrics=metrics,
            method=self.schedule.name,
            converged=out2.converged,
            filter_trace=out1.trace or [],
            ranking_trace=out2.trace or [],
            degraded=degraded,
            max_error=max_error,
            budget_reason=tracker.exhausted_reason if tracker else None,
            degraded_reason=degraded_reason,
            rest=rest,
        )

    def _conservative_radius(self, anchors, cands1, k: int) -> float:
        """Sound step-3 radius when storage faults left the filter
        with no finite k-th upper bound.

        Preferred source: the landmark concatenation upper bound
        (every term is a genuine surface-path length, and landmark
        tables live in memory — immune to page faults).  Last resort:
        ``max anchor offset + total mesh edge length`` — any shortest
        path on a connected mesh uses each edge at most once, so the
        sum of all edge lengths bounds dS from any anchor, and the
        anchor offset bridges the query point to that anchor.
        """
        if self.ranker.landmarks is not None:
            radius = self.ranker.landmarks.kth_upper_bound(
                anchors, [c.vertex for c in cands1], k
            )
            if math.isfinite(radius):
                return radius
        worst_offset = max(offset for _vertex, offset in anchors)
        return worst_offset + float(np.sum(self.mesh.edge_lengths))
