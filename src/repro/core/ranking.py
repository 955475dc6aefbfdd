"""Surface distance ranking (paper §4.2) — the filter engine shared by
MR3's steps 2 and 4.

Given the query vertex and a set of candidates, walk a resolution
schedule; at every iteration

1. build each still-active candidate's **search region** — the whole
   terrain on the first pass, afterwards the ellipse with foci
   (q', p') and constant ub(q, p), optionally *refined* to the
   descendant MBRs of the previous upper-bound path;
2. **integrate I/O regions** of candidates whose region MBRs overlap
   heavily, fetch each merged region once, and estimate per
   candidate with the already-fetched data;
3. tighten ``ub`` from the DMTM network (running min — the monotone
   improvement property) and ``lb`` from the MSDN (running max),
   using the *dummy lower bound* corridor test
   (:meth:`~repro.msdn.msdn.MSDN.corridor_interval`) to skip full SDN
   passes that provably cannot change the classification;
4. classify candidates (VA-file rule); stop when the k-th neighbour
   is certain or the schedule is exhausted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.bounds import Candidate, classify_candidates
from repro.core.embedding import source_of
from repro.core.regions import integrate_io_regions
from repro.errors import QueryError, StorageError
from repro.geodesic.deadline import DeadlineExceeded
from repro.geometry.ellipse import EllipseRegion
from repro.geometry.primitives import BoundingBox
from repro.obs.context import active_registry, current
from repro.obs.events import LevelEvent


def _anchors_key(anchors) -> tuple:
    """Hashable, type-normalized form of a query's (vertex, offset)
    anchors, for bound-cache keys."""
    return tuple((int(v), float(off)) for v, off in anchors)


def _take_lower_bound(cand: Candidate, result) -> None:
    """Fold a full MSDN pass into ``cand``: its bound, and its path,
    which replaces the path (and drops the corridor) the next screen
    reads."""
    cand.interval.refine_lb(result.value)
    cand.lb_path_keys = result.path_keys
    cand.lb_path_resolution = result.resolution
    cand.lb_corridor = None


def _structure_scope(mesh, dmtm, msdn) -> tuple:
    """Identity token for the structures a cached bound was computed
    from.

    A :class:`repro.core.batch.BoundCache` can be shared across
    engines (the batch executor's shared cache, one sharded engine's
    many tile engines).  Bound keys like ``("net", resolution, box)``
    are only pure given the *structures*, so without this token two
    tile engines whose regions happen to coincide would alias each
    other's entries.  The token fingerprints the mesh geometry plus
    the DMTM/MSDN build parameters; it is memoized on the mesh object
    because hashing the vertex array is the expensive part.
    """
    token = getattr(mesh, "_bound_scope_token", None)
    if token is None:
        from repro.geodesic.landmarks import mesh_fingerprint

        token = mesh_fingerprint(mesh)[:16]
        mesh._bound_scope_token = token
    return (
        token,
        int(dmtm.steiner_per_edge),
        float(msdn.spacing),
        int(msdn.supersample),
    )


@dataclass(frozen=True)
class RankerOptions:
    """Tuning knobs of the ranking loop (all paper-described)."""

    integrate_io: bool = True
    integration_threshold: float = 0.8
    use_refined_region: bool = True
    use_dummy_lb: bool = True
    ellipse_slack: float = 1.001  # guard band against fp-tight ellipses
    filter_tighten: float = 0.8  # step-2 target accuracy for the k-th ub
    # When the schedule is exhausted with overlapping ranges, polish
    # the boundary candidates' upper bounds by Kanai-Suzuki selective
    # refinement — the paper allows 3 % error in surface distances
    # ("We allow 3% error in shortest surface calculation").
    final_polish: bool = True
    polish_tolerance: float = 0.03


@dataclass
class RankingOutcome:
    """Result of ranking a candidate set against the query."""

    winners: list  # the top-k candidates (by ub)
    all_candidates: list
    iterations: int
    converged: bool
    kth_ub: float
    # EXPLAIN trace: one typed LevelEvent per iteration with the
    # level's resolutions, candidate counts, k-th bound state and the
    # page I/O attributed to that level (see repro.obs.events).
    trace: list = None
    # True when a query budget stopped refinement before the schedule
    # (or the classification rule) was done — the intervals are sound
    # but looser than an unbudgeted run would produce.
    budget_exhausted: bool = False
    # True when at least one DMTM/MSDN region fetch failed with a
    # StorageError and the loop fell back to its redundant bound
    # sources (stale bounds, landmarks, per-candidate salvage).  The
    # intervals are still sound — skipping a tightening pass can only
    # leave bounds looser, never wrong.
    storage_degraded: bool = False


class _StorageFallback:
    """Per-rank record of region fetches lost to storage faults.

    Passed down into the bound-update helpers, which catch a
    :class:`~repro.errors.StorageError`, note it here and skip or
    salvage the bound pass it hit.
    """

    __slots__ = ("events", "salvaged")

    def __init__(self):
        self.events: list[tuple[str, float, str]] = []
        self.salvaged = 0

    def note(self, source: str, resolution: float, exc: Exception) -> None:
        self.events.append((source, float(resolution), str(exc)))

    @property
    def triggered(self) -> bool:
        return bool(self.events)


@dataclass
class _IterationPlan:
    """Per-candidate regions for one iteration."""

    io_regions: list  # MBR per active candidate (None = whole terrain)
    search_regions: list  # list-of-boxes per candidate (None = whole)
    io_groups: list  # (region or None, member indices) per I/O fetch


class DistanceRanker:
    """Ranks candidates by surface-distance intervals over a schedule.

    Telemetry goes to the active :class:`~repro.obs.ObsContext`: each
    level runs in one ``interval-ranking`` frame, the DMTM/MSDN bound
    updates under ``bound-composition``, the Kanai-Suzuki polish under
    ``refinement``.
    """

    def __init__(
        self,
        mesh,
        dmtm,
        msdn,
        schedule,
        options: RankerOptions | None = None,
        stats=None,
        bound_cache=None,
        landmarks=None,
    ):
        self.mesh = mesh
        self.dmtm = dmtm
        self.msdn = msdn
        self.schedule = schedule
        # Optional repro.geodesic.landmarks.LandmarkIndex — a third
        # lower-bound source alongside Euclidean and MSDN.  Its exact
        # -table triangle-inequality bounds fold into every
        # candidate's interval up front (lower bounds only tighten,
        # so intervals stay sound) and prune full MSDN passes for
        # candidates the landmark bound already rejects.  None keeps
        # the loop bit-identical to the landmark-free ranker.
        self.landmarks = landmarks
        self.options = options if options is not None else RankerOptions()
        # Shared IOStatistics: with it, every trace event carries the
        # logical/physical page delta attributed to its level.
        self.stats = stats
        # Optional repro.core.batch.BoundCache.  Every bound the loop
        # computes is a pure function of (structures, anchors, target,
        # resolution, region), the dummy-lb screen's interval also of
        # its corridor; the cache memoizes those computations
        # across queries.  Page charging (touch_region) is never
        # skipped on a hit, so cached and uncached runs are identical
        # in results AND logical reads — the cache only saves CPU.
        self.bound_cache = bound_cache
        # Every cache key below carries this token so engines over
        # different structures can share one cache without aliasing.
        self._scope = _structure_scope(mesh, dmtm, msdn)

    # ------------------------------------------------------------------

    def make_candidates(self, object_ids, object_set) -> list[Candidate]:
        """Wrap object ids into ranking candidates."""
        return [
            Candidate(
                object_id=int(obj),
                vertex=object_set.vertex_of(int(obj)),
                position=tuple(object_set.position_of(int(obj))),
            )
            for obj in object_ids
        ]

    def rank(
        self,
        query,
        candidates: list[Candidate],
        k: int,
        tighten_kth: float = 0.0,
        phase: str = "rank",
        budget=None,
        min_levels: int = 1,
    ) -> RankingOutcome:
        """Run the multiresolution ranking loop.

        ``query`` is a mesh vertex id or an
        :class:`repro.core.embedding.EmbeddedQuery` (arbitrary
        on-surface point, anchored at its facet's vertices).

        ``tighten_kth`` keeps iterating after the set is decided until
        the k-th candidate's interval accuracy (lb/ub) reaches the
        target — MR3's step 2 "needs an extra step to calculate an as
        tight as possible upper bound for the k-th neighbour", which
        becomes the step-3 search radius.

        ``phase`` labels the emitted trace events and spans ("filter"
        for MR3 step 2, "ranking" for step 4).

        ``budget`` is an optional
        :class:`repro.core.budget.BudgetTracker` (passed per call, not
        stored, so one ranker can serve concurrent queries).  The
        check runs between levels: an exhausted budget stops
        refinement at the current resolution and the outcome is
        flagged ``budget_exhausted``.  The first ``min_levels`` levels
        always run — MR3's filter phase passes 1 so every candidate
        gets a finite upper bound (the step-3 radius and the degraded
        answer both need one), the ranking phase passes 0 because its
        candidates inherit step-2 intervals.

        Region fetches lost to :class:`~repro.errors.StorageError`
        never propagate: the group's bound-tightening pass is skipped
        (stale intervals stay sound), individual candidates are
        salvaged through their own smaller regions where possible,
        and the outcome is flagged ``storage_degraded``.
        """
        if k < 1:
            raise QueryError("k must be >= 1")
        if not candidates:
            return RankingOutcome([], [], 0, True, float("inf"))
        obs = current()
        q_pos, anchors = source_of(self.mesh, query)
        for cand in candidates:
            euclid = float(np.linalg.norm(q_pos - np.asarray(cand.position)))
            cand.interval.refine_lb(euclid)

        landmark_lbs = None
        landmark_kth = float("inf")
        if self.landmarks is not None:
            landmark_lbs = self._apply_landmark_bounds(anchors, candidates)
            # Landmark concatenation distances are genuine surface
            # paths, so the k-th smallest is a valid rejection
            # threshold from level 0 — before the DMTM has produced
            # any finite upper bound.  It only gates *work-skipping*
            # (dummy tests and landmark prunes), never the intervals
            # themselves: folding landmark values into candidate
            # intervals would let a concatenation path become the
            # final fill key at exhausted-ambiguity fills, breaking
            # answer-set identity with landmarks-off runs (KS polish
            # is a stopping rule, not a hard bound, so a landmark ub
            # can legitimately undercut it).  Gating, by contrast, is
            # identity-safe by construction: a skipped refinement
            # leaves a stale-but-sound bound behind.
            with obs.phase("landmark-bounds"):
                landmark_kth = self.landmarks.kth_upper_bound(
                    anchors, [c.vertex for c in candidates], k
                )
        kth_ub_estimate = landmark_kth

        active = list(candidates)
        iterations = 0
        converged = False
        exhausted = False
        fallback = _StorageFallback()
        trace: list[LevelEvent] = []
        last_level = len(self.schedule) - 1
        for level, (res_u, res_l) in enumerate(self.schedule.levels()):
            if budget is not None and level >= min_levels and budget.check():
                exhausted = True
                break
            iterations += 1
            active_before = len(active)
            io_before = self.stats.snapshot() if self.stats is not None else None
            cpu_before = time.process_time()
            try:
                verdict, logical, physical, by_class = self._run_level(
                    phase, level, res_u, res_l, q_pos, anchors, active,
                    candidates, k, kth_ub_estimate, landmark_lbs,
                    last_level, io_before, active_before, fallback,
                )
            except DeadlineExceeded:
                # A kernel noticed the wall-clock deadline mid-level.
                # Partial bound updates are sound (bounds only
                # tighten), so stop refining and degrade.
                exhausted = True
                if budget is not None:
                    budget.note_mid_level_stop()
                break
            # Composed gate: the classified kth_ub comes from
            # DMTM/MSDN-sourced intervals; the landmark concatenation
            # estimate is an independent upper bound on the same k-th
            # distance.  Their min is admissible and strictly tightens
            # the prune/dummy work-skipping threshold whenever the
            # landmark tables beat the current refinement level.
            kth_ub_estimate = min(verdict.kth_ub, landmark_kth)
            trace.append(
                LevelEvent(
                    phase=phase,
                    level=level,
                    dmtm_resolution=res_u,
                    msdn_resolution=res_l,
                    active_before=active_before,
                    active_after=len(verdict.active),
                    kth_lb=verdict.kth_lb,
                    kth_ub=verdict.kth_ub,
                    done=verdict.done,
                    cpu_seconds=time.process_time() - cpu_before,
                    logical_reads=logical,
                    physical_reads=physical,
                    reads_by_class=by_class,
                )
            )
            if verdict.done and verdict.kth_accuracy >= tighten_kth:
                converged = True
                break
            if verdict.done:
                # Set decided but the k-th bound still loose: keep
                # refining only the current winners.
                active = sorted(
                    verdict.winners, key=lambda c: (c.ub, c.object_id)
                )[:k]
                continue
            active = verdict.active
            if not active:
                # Everyone classified individually; the set is decided.
                converged = True
                break
        final = classify_candidates(candidates, k)
        if not final.done and self.options.final_polish and not exhausted:
            try:
                with obs.phase(
                    "refinement", phase=phase, ambiguous=len(final.active)
                ):
                    self._polish_boundary(anchors, candidates, final, k)
            except DeadlineExceeded:
                exhausted = True
                if budget is not None:
                    budget.note_mid_level_stop()
            final = classify_candidates(candidates, k)
        winners = sorted(final.winners, key=lambda c: (c.ub, c.object_id))[:k]
        if len(winners) < k:
            # Schedule exhausted with residual ambiguity: certain
            # winners keep their slots (their guarantee is monotone —
            # lower bounds only grow), and the remaining slots are
            # filled by upper bound (at the pathnet level ub is the
            # surface distance by the paper's definition).  Winners
            # may carry stale, loose ubs from the iteration they were
            # decided at, so they must never compete by ub.
            taken = {id(c) for c in winners}
            pool = sorted(
                (c for c in candidates if id(c) not in taken),
                key=lambda c: (c.ub, c.object_id),
            )
            winners.extend(pool[: k - len(winners)])
            winners.sort(key=lambda c: (c.ub, c.object_id))
        storage_degraded = fallback.triggered
        if storage_degraded:
            registry = active_registry()
            registry.counter("ranking.storage_fallbacks_total").add(
                len(fallback.events)
            )
            registry.counter("ranking.storage_salvages_total").add(
                fallback.salvaged
            )
        return RankingOutcome(
            winners=winners,
            all_candidates=candidates,
            iterations=iterations,
            converged=converged or final.done,
            kth_ub=winners[-1].ub if winners else float("inf"),
            trace=trace,
            budget_exhausted=exhausted,
            storage_degraded=storage_degraded,
        )

    def _run_level(
        self, phase, level, res_u, res_l, q_pos, anchors, active,
        candidates, k, kth_ub_estimate, landmark_lbs, last_level,
        io_before, active_before, fallback,
    ):
        """One refinement level: plan regions, tighten both bound
        families, classify.  Returns (verdict, level I/O deltas)."""
        obs = current()
        with obs.phase(
            "interval-ranking", phase=phase, level=level,
            dmtm_resolution=res_u, msdn_resolution=res_l,
        ) as frame:
            # At the final level the ub becomes the ranking key
            # when ranges still overlap, so estimate it over
            # the full ellipse rather than the refined corridor.
            plan = self._plan_regions(
                q_pos, active, level, refined=level < last_level
            )
            with obs.phase("bound-composition"):
                self._update_upper_bounds(
                    anchors, active, plan, res_u, fallback=fallback
                )
                self._update_lower_bounds(
                    q_pos, active, plan, res_l, kth_ub_estimate,
                    landmark_lbs=landmark_lbs, fallback=fallback,
                )
            verdict = classify_candidates(candidates, k)
        if io_before is not None:
            io_delta = self.stats.delta_since(io_before)
            logical = io_delta.logical_reads
            physical = io_delta.physical_reads
            by_class = io_delta.physical_by_class
        else:
            logical = physical = 0
            by_class = {}
        frame.set_attribute("active_before", active_before)
        frame.set_attribute("active_after", len(verdict.active))
        frame.set_attribute("physical_reads", physical)
        return verdict, logical, physical, by_class

    def rank_within(
        self,
        query,
        candidates: list[Candidate],
        radius: float,
    ) -> tuple[list[Candidate], bool]:
        """Surface *range query* classification: which candidates have
        ``dS(q, p) <= radius``?

        The paper's conclusion notes the DMTM/MSDN framework supports
        "other distance comparison based queries, such as range
        queries"; this is that query.  Same refinement loop as
        :meth:`rank`, but candidates classify against the fixed radius
        (in when ub <= radius, out when lb > radius).

        Returns ``(inside, certain)`` — ``certain`` is False when the
        schedule was exhausted with candidates still straddling the
        radius (those are classified by upper bound, the paper's
        at-max-resolution convention), or when a storage fault made
        the loop skip a bound source (as in :meth:`rank`).
        """
        if radius < 0:
            raise QueryError("radius must be non-negative")
        if not candidates:
            return [], True
        obs = current()
        q_pos, anchors = source_of(self.mesh, query)
        for cand in candidates:
            euclid = float(np.linalg.norm(q_pos - np.asarray(cand.position)))
            cand.interval.refine_lb(euclid)

        landmark_lbs = None
        if self.landmarks is not None:
            landmark_lbs = self._apply_landmark_bounds(anchors, candidates)

        fallback = _StorageFallback()
        active = [c for c in candidates if c.lb <= radius]
        last_level = len(self.schedule) - 1
        for level, (res_u, res_l) in enumerate(self.schedule.levels()):
            if not active:
                break
            with obs.phase("interval-ranking"):
                plan = self._plan_regions(
                    q_pos, active, level, refined=level < last_level
                )
                with obs.phase("bound-composition"):
                    self._update_upper_bounds(
                        anchors, active, plan, res_u, fallback=fallback
                    )
                    self._update_lower_bounds(
                        q_pos, active, plan, res_l, radius,
                        landmark_lbs=landmark_lbs, fallback=fallback,
                    )
                active = [
                    c for c in active if c.lb <= radius < c.ub
                ]
        if active and self.options.final_polish:
            # Straddling candidates get the Kanai-Suzuki polish so the
            # in/out decision is made with ~3 %-accurate upper bounds.
            with obs.phase("refinement"):
                self._polish(anchors, active)
            active = [c for c in active if c.lb <= radius < c.ub]
        inside = [c for c in candidates if c.ub <= radius]
        certain = not active and not fallback.triggered
        return sorted(inside, key=lambda c: (c.ub, c.object_id)), certain

    def _polish_boundary(self, anchors, candidates, verdict, k: int) -> None:
        """Tighten the upper bounds of candidates straddling the k-th
        boundary by Kanai-Suzuki selective refinement (3 % default).

        The schedule's pathnet level uses the paper's one Steiner
        point per edge, which on very rugged terrain can leave 10-20 %
        slack; selectively refining just the ambiguous candidates is
        exactly how the paper's EA reaches its 97 % accuracy.
        """
        # Ambiguous candidates plus the current winners they compete
        # with (a winner's stale ub may be the blocking range).
        targets = list(verdict.active) + [
            c for c in verdict.winners if c.interval.accuracy < 0.9
        ]
        self._polish(anchors, targets)

    def _polish(self, anchors, targets: list[Candidate]) -> None:
        """Refine each target's ub by, per anchor in order, the
        anchor's offset plus the Kanai-Suzuki distance from it
        (:meth:`_ks_distances`, one round-0 search per anchor for all
        targets).  Each anchor's distances are folded in as soon as
        its call returns, so a deadline in a later anchor keeps them."""
        vertices = [cand.vertex for cand in targets]
        for anchor_vertex, offset in anchors:
            distances = self._ks_distances(anchor_vertex, vertices)
            for cand, distance in zip(targets, distances):
                cand.interval.refine_ub(offset + distance)

    # ------------------------------------------------------------------
    # region planning
    # ------------------------------------------------------------------

    def _plan_regions(
        self, q_pos, active: list[Candidate], level: int, refined: bool = True
    ) -> _IterationPlan:
        opts = self.options
        io_regions: list[BoundingBox | None] = []
        search_regions: list = []
        for cand in active:
            if not math.isfinite(cand.ub):
                io_regions.append(None)
                search_regions.append(None)
                continue
            ellipse = EllipseRegion(
                q_pos[:2], np.asarray(cand.position)[:2],
                cand.ub * opts.ellipse_slack,
            )
            io_box = ellipse.mbr()
            io_regions.append(io_box)
            if refined and opts.use_refined_region and cand.ub_path_keys:
                boxes = self.dmtm.path_region(cand.ub_path_keys)
                search_regions.append(boxes)
            else:
                search_regions.append([io_box])
        return _IterationPlan(
            io_regions=io_regions,
            search_regions=search_regions,
            io_groups=self._group_for_io(io_regions),
        )

    # ------------------------------------------------------------------
    # upper bounds
    # ------------------------------------------------------------------

    def _update_upper_bounds(
        self,
        anchors,
        active: list[Candidate],
        plan: _IterationPlan,
        res_u: float,
        fallback: _StorageFallback,
    ) -> None:
        """Tighten upper bounds for the active candidates.

        ``anchors`` is a tuple of (vertex, offset) pairs describing
        the query source (a single (v, 0) for a vertex query; the
        facet vertices with in-facet offsets for an embedded point).
        """
        for group_box, members in plan.io_groups:
            # One fetch per integrated region (page I/O is charged
            # here unconditionally — a bound-cache hit below never
            # changes the read accounting).
            try:
                self.dmtm.touch_region(res_u, group_box)
            except StorageError as exc:
                # The group's region is unreadable: skip its ub pass
                # (stale upper bounds remain genuine path lengths, so
                # the intervals stay sound) and try each member's own
                # smaller region, which may avoid the bad pages.
                fallback.note("dmtm", res_u, exc)
                self._salvage_upper_bounds(
                    anchors, active, plan, res_u, members, group_box, fallback
                )
                continue
            refinables = []
            for idx in members:
                cand = active[idx]
                boxes = plan.search_regions[idx]
                if boxes is None or boxes == [plan.io_regions[idx]]:
                    refinables.append(cand)
                    continue
                # Per-candidate refined corridor (CPU optimisation):
                result = self._estimate_ub_refined(anchors, cand, boxes, res_u)
                if result is None:
                    refinables.append(cand)
                else:
                    value, keys = result
                    cand.interval.refine_ub(value)
                    cand.ub_path_keys = keys
            if refinables:
                combined = self._combined_ubs_over_region(
                    anchors, [c.vertex for c in refinables], res_u, group_box
                )
                for cand in refinables:
                    result = combined.get(cand.vertex)
                    if result is not None:
                        value, keys = result
                        cand.interval.refine_ub(value)
                        cand.ub_path_keys = keys

    def _salvage_upper_bounds(
        self, anchors, active, plan, res_u, members, group_box, fallback
    ) -> None:
        """Per-candidate ub recovery after a failed group fetch.

        Each member retries through its own (smaller) I/O region —
        which may miss the quarantined pages the merged region hit.
        Members without a finer region than the group's (whole-terrain
        fetches, single-member groups) have nothing new to try.
        """
        for idx in members:
            box = plan.io_regions[idx]
            if box is None or box == group_box:
                continue
            cand = active[idx]
            try:
                self.dmtm.touch_region(res_u, box)
            except StorageError:
                continue
            combined = self._combined_ubs_over_region(
                anchors, [cand.vertex], res_u, box
            )
            result = combined.get(cand.vertex)
            if result is not None:
                value, keys = result
                cand.interval.refine_ub(value)
                cand.ub_path_keys = keys
                fallback.salvaged += 1

    def _combined_ubs_over_region(
        self, anchors, target_vertices, res_u: float, group_box
    ) -> dict:
        """Combined upper bounds for targets sharing one fetched
        region, memoized per (anchors, target, resolution, region).

        Landmark concatenation bounds are deliberately NOT folded into
        these per-candidate values: interval ubs must stay
        DMTM/KS-sourced so a landmark run fills exhausted-ambiguity
        slots with the same ``(ub, object_id)`` keys as a
        landmarks-off run.  Landmark upper bounds instead compose with
        the classified kth_ub on the work-skipping gate in
        :meth:`rank` (see ``landmark_kth``), which tightens pruning
        without touching the fill order.
        """
        cache = self.bound_cache
        if cache is None:
            shared = self.dmtm.extract_network(
                res_u, group_box, charge_io=False
            )
            return self._combined_ubs(anchors, target_vertices, shared)
        anchors_key = _anchors_key(anchors)
        out: dict = {}
        missing: list[int] = []
        for vertex in dict.fromkeys(target_vertices):
            key = ("ub", self._scope, anchors_key, vertex, res_u, group_box)
            found, value = cache.lookup(key)
            if found:
                if value is not None:
                    out[vertex] = value
            else:
                missing.append(vertex)
        if missing:
            shared = self._shared_network(res_u, group_box)
            computed = self._combined_ubs(anchors, missing, shared)
            for vertex in missing:
                value = computed.get(vertex)
                cache.store(
                    ("ub", self._scope, anchors_key, vertex, res_u, group_box),
                    value,
                )
                if value is not None:
                    out[vertex] = value
        return out

    def _shared_network(self, res_u: float, group_box):
        """Extract (or reuse) the group's shared network.  Extraction
        is pure given (resolution, region), and the view (a compiled
        cut and its region mask, or a pathnet graph) is only read
        afterwards, so one instance can serve many queries."""
        cache = self.bound_cache
        if cache is None:
            return self.dmtm.extract_network(res_u, group_box, charge_io=False)
        key = ("net", self._scope, res_u, group_box)
        found, network = cache.lookup_network(key)
        if not found:
            network = self.dmtm.extract_network(
                res_u, group_box, charge_io=False
            )
            cache.store_network(key, network)
        return network

    def _combined_ubs(self, anchors, target_vertices, network):
        """Best upper bound per target over all source anchors:
        min over anchors v of (offset_v + ub(v, target)).  On the CSR
        kernels the pathnet level settles every anchor and candidate
        in one multi-source search (see DMTM.upper_bounds_multi)."""
        return self.dmtm.upper_bounds_multi(anchors, target_vertices, network)

    def _estimate_ub_refined(self, anchors, cand, boxes, res_u):
        """Try the refined corridor, widening it (the paper doubles
        each vertex MBR) before falling back to the shared network."""
        cache = self.bound_cache
        if cache is not None:
            key = (
                "ubr", self._scope, _anchors_key(anchors), cand.vertex, res_u,
                tuple(boxes),
            )
            found, value = cache.lookup(key)
            if found:
                return value
            value = self._estimate_ub_refined_uncached(
                anchors, cand, boxes, res_u
            )
            cache.store(key, value)
            return value
        return self._estimate_ub_refined_uncached(anchors, cand, boxes, res_u)

    def _estimate_ub_refined_uncached(self, anchors, cand, boxes, res_u):
        margin = 0.0
        for _attempt in range(3):
            region = [b.expanded(margin) if margin else b for b in boxes]
            network = self.dmtm.extract_network(res_u, region, charge_io=False)
            best = None
            for anchor_vertex, offset in anchors:
                result = self.dmtm.upper_bound(
                    anchor_vertex, cand.vertex, res_u, network=network
                )
                if result is not None:
                    value = offset + result.value
                    if best is None or value < best[0]:
                        best = (value, result.path_keys)
            if best is not None:
                return best
            base = max(b.extents.max() for b in boxes)
            margin = base if margin == 0.0 else margin * 2.0
        return None

    # ------------------------------------------------------------------
    # lower bounds
    # ------------------------------------------------------------------

    def _apply_landmark_bounds(self, anchors, candidates) -> dict:
        """Fold the landmark triangle-inequality lower bounds into the
        candidate intervals (paper-external ALT extension).

        The bounds come from exact surface-distance tables, so they
        are admissible; folding them in can only *raise* lower bounds,
        which keeps every downstream classification sound.  Returns
        ``{id(candidate): bound}`` so :meth:`_update_lower_bounds` can
        prune full MSDN passes the landmark bound already decides.
        """
        with current().phase("landmark-bounds"):
            vertices = [c.vertex for c in candidates]
            bounds = self.landmarks.anchored_lower_bounds(anchors, vertices)
            hits = 0
            out: dict = {}
            for cand, value in zip(candidates, bounds):
                value = float(value)
                out[id(cand)] = value
                # In exact arithmetic value <= dS <= ub always; clamp
                # against fp drift on already-polished ubs so the
                # interval never inverts.  Admissibility itself is
                # enforced by the landmark_admissible oracle.
                clamped = min(value, cand.ub)
                if clamped > cand.lb:
                    hits += 1
                    cand.interval.refine_lb(clamped)
            if hits:
                active_registry().counter("landmark.hits").add(hits)
        return out

    def _update_lower_bounds(
        self,
        q_pos,
        active: list[Candidate],
        plan: _IterationPlan,
        res_l: float,
        kth_ub_estimate: float,
        landmark_lbs: dict | None,
        fallback: _StorageFallback,
    ) -> None:
        opts = self.options
        prunes = screens = skips = 0
        for group_box, members in plan.io_groups:
            axes = tuple(
                sorted(
                    {
                        self.msdn.choose_axis(q_pos, active[idx].position)
                        for idx in members
                    }
                )
            )
            try:
                self.msdn.touch_region(res_l, group_box, axes=axes)
            except StorageError as exc:
                # Skipping an MSDN pass leaves the Euclidean/landmark
                # lower bounds in place — lower bounds only ever
                # tighten, so a stale one is still admissible.
                fallback.note("msdn", res_l, exc)
                self._salvage_lower_bounds(
                    q_pos, active, plan, res_l, members, group_box, fallback
                )
                continue
            # Dummy-corridor screening first, then one batched MSDN
            # pass for the survivors.  Each bound is a pure function
            # of (source, target, resolution, region) with
            # charge_io=False, so hoisting them out of the loop
            # changes nothing observable.
            pending: list[tuple] = []  # (candidate, roi_box)
            for idx in members:
                cand = active[idx]
                roi = plan.io_regions[idx]
                if (
                    landmark_lbs is not None
                    and math.isfinite(kth_ub_estimate)
                    and landmark_lbs.get(id(cand), 0.0) >= kth_ub_estimate
                ):
                    # The landmark bound (already folded into the
                    # interval up front) rejects this candidate on its
                    # own; the MSDN pass could only raise the lb
                    # further, so skipping it leaves a stale-but-sound
                    # bound and the classification is unchanged.
                    prunes += 1
                    continue
                if (
                    opts.use_dummy_lb
                    and cand.lb_path_keys
                    and math.isfinite(kth_ub_estimate)
                ):
                    screens += 1
                    # Even the optimistic corridor bound cannot reach
                    # the rejection threshold: the true lb (which is
                    # smaller) cannot either, so skip the full pass.
                    if not self._corridor_reaches(
                        q_pos, cand, res_l, kth_ub_estimate, roi
                    ):
                        skips += 1
                        continue
                pending.append((cand, roi))
            results = self._lower_bounds_batch(q_pos, pending, res_l)
            for (cand, _roi), result in zip(pending, results):
                _take_lower_bound(cand, result)
        registry = active_registry()
        if prunes:
            registry.counter("landmark.prunes").add(prunes)
        if screens:
            registry.counter("ranking.dummy_screens").add(screens)
        if skips:
            registry.counter("ranking.dummy_skips").add(skips)

    def _salvage_lower_bounds(
        self, q_pos, active, plan, res_l, members, group_box, fallback
    ) -> None:
        """Per-candidate lb recovery after a failed group fetch (the
        lower-bound twin of :meth:`_salvage_upper_bounds`)."""
        for idx in members:
            roi = plan.io_regions[idx]
            if roi is None or roi == group_box:
                continue
            cand = active[idx]
            axes = (self.msdn.choose_axis(q_pos, cand.position),)
            try:
                self.msdn.touch_region(res_l, roi, axes=axes)
            except StorageError:
                continue
            (result,) = self._lower_bounds_batch(q_pos, [(cand, roi)], res_l)
            _take_lower_bound(cand, result)
            fallback.salvaged += 1

    def _corridor_reaches(self, q_pos, cand, res_l: float, threshold, roi) -> bool:
        """The dummy-lb screen of ``cand`` against ``threshold``, over
        the corridor of its current lower-bound path
        (:meth:`~repro.msdn.msdn.MSDN.corridor_interval`).

        With a bound cache, the screen's interval is kept under a key
        holding every input of the corridor bound but the threshold;
        a kept interval that decides ``threshold`` answers before the
        corridor corners are resolved, and one that does not is
        narrowed by the screen it lets run.  Every kept interval holds
        the bound, so an answer never depends on which screens ran
        before it."""
        cache = self.bound_cache
        key = known = None
        if cache is not None:
            key = (
                "screen",
                self._scope,
                tuple(float(c) for c in q_pos),
                tuple(float(c) for c in cand.position),
                res_l,
                roi,
                tuple(cand.lb_path_keys),
                cand.lb_path_resolution,
            )
            found, known = cache.lookup(key)
            if found:
                if known[0] >= threshold:
                    return True
                if known[1] < threshold:
                    return False
        if cand.lb_corridor is None:
            cand.lb_corridor = self.msdn.corridor_corners(
                cand.lb_path_keys, cand.lb_path_resolution
            )
        lo, hi = self.msdn.corridor_interval(
            q_pos,
            cand.position,
            res_l,
            threshold,
            roi=[roi] if roi is not None else None,
            corridor=cand.lb_corridor,
        )
        if key is not None:
            if known is not None:
                lo, hi = max(lo, known[0]), min(hi, known[1])
            cache.store(key, (lo, hi))
        return lo >= threshold

    def _lb_cache_key(self, q_pos, position, res_l: float, roi):
        return (
            "lb",
            self._scope,
            tuple(float(c) for c in q_pos),
            tuple(float(c) for c in position),
            res_l,
            roi,
        )

    def _lower_bounds_batch(self, q_pos, pending, res_l: float) -> list:
        """Full MSDN lower bounds for ``[(candidate, roi_box), ...]``,
        cache-aware, computing all misses through one batched MSDN
        call (per-call setup hoisted, same values)."""
        cache = self.bound_cache
        rois = [[roi] if roi is not None else None for _cand, roi in pending]
        if cache is None:
            return self.msdn.lower_bound_batch(
                q_pos,
                [cand.position for cand, _roi in pending],
                res_l,
                rois=rois,
                charge_io=False,
            )
        results: list = [None] * len(pending)
        missing: list[int] = []
        for i, (cand, roi) in enumerate(pending):
            key = self._lb_cache_key(q_pos, cand.position, res_l, roi)
            found, result = cache.lookup(key)
            if found:
                results[i] = result
            else:
                missing.append(i)
        if missing:
            computed = self.msdn.lower_bound_batch(
                q_pos,
                [pending[i][0].position for i in missing],
                res_l,
                rois=[rois[i] for i in missing],
                charge_io=False,
            )
            for i, result in zip(missing, computed):
                cand, roi = pending[i]
                cache.store(
                    self._lb_cache_key(q_pos, cand.position, res_l, roi), result
                )
                results[i] = result
        return results

    def _ks_distances(self, anchor_vertex: int, vertices) -> list[float]:
        """Kanai-Suzuki polish distances from ``anchor_vertex`` to each
        of ``vertices``, memoized per (pair, tolerance) — the single
        most expensive repeated computation in a batch of overlapping
        queries.  The pairs the cache misses are computed in one
        :func:`~repro.geodesic.kanai_suzuki.kanai_suzuki_distances`
        call and stored pair by pair."""
        from repro.geodesic.kanai_suzuki import kanai_suzuki_distances

        tolerance = self.options.polish_tolerance
        cache = self.bound_cache
        if cache is None:
            return kanai_suzuki_distances(
                self.mesh, anchor_vertex, vertices, tolerance=tolerance
            )
        keys = [
            ("ks", self._scope, int(anchor_vertex), int(vertex), tolerance)
            for vertex in vertices
        ]
        values = {}
        for key in dict.fromkeys(keys):
            found, value = cache.lookup(key)
            if found:
                values[key] = value
        missing = [key for key in dict.fromkeys(keys) if key not in values]
        if missing:
            computed = kanai_suzuki_distances(
                self.mesh, anchor_vertex, [key[3] for key in missing],
                tolerance=tolerance,
            )
            for key, value in zip(missing, computed):
                cache.store(key, value)
                values[key] = value
        return [values[key] for key in keys]

    # ------------------------------------------------------------------
    # I/O grouping
    # ------------------------------------------------------------------

    def _group_for_io(self, io_regions):
        """Group candidate indices by integrated I/O region, once per
        level: both bound passes fetch the same groups.

        Returns a list of (region_or_None, member_indices).
        Candidates without a finite region (first iteration) share the
        whole-terrain fetch.
        """
        whole = [i for i, box in enumerate(io_regions) if box is None]
        boxed = [(i, box) for i, box in enumerate(io_regions) if box is not None]
        groups: list[tuple[BoundingBox | None, list[int]]] = []
        if whole:
            groups.append((None, whole))
        if boxed:
            if self.options.integrate_io:
                merged, assign = integrate_io_regions(
                    [box for _i, box in boxed],
                    threshold=self.options.integration_threshold,
                )
                buckets: dict[int, list[int]] = {}
                for (idx, _box), gid in zip(boxed, assign):
                    buckets.setdefault(gid, []).append(idx)
                for gid, members in sorted(buckets.items()):
                    groups.append((merged[gid], members))
            else:
                for idx, box in boxed:
                    groups.append((box, [idx]))
        return groups
