"""Differential engine-matrix runner.

One :class:`~repro.testkit.generators.Scenario` is executed under
every execution-mode pair the repo documents a contract for, and each
pair's identity (or bound) is asserted:

==================  =================================================
pair                contract
==================  =================================================
components vs       the array pathnet builder, the compiled-graph
oracles             search kernels, the exact window propagation,
                    MSDN lower bounds, dummy-lb screens and in-place
                    cut-level upper bounds agree
                    exactly with the reference implementations
                    (:mod:`repro.testkit.reference`, dict kernels)
                    on the scenario's terrain, queries and objects
                    (``component_identity``)
batch w=N vs        bit-identical per-query results, intervals and
sequential          logical reads (PR 2's bound-cache transparency)
faulted + retry     identical answers to the clean engine; fault
vs clean            counters reconcile (``retries_total ==
                    injected_total - reads_failed_total``, PR 3)
budgeted vs         a budget that never tripped is bit-identical;
exhaustive          a tripped budget still satisfies every oracle
                    and carries a sound ``max_error`` (PR 3)
landmarks on vs     identical neighbour ids and degraded reporting,
off                 landmark bounds admissible vs exact geodesics
                    (``landmark_admissible``); the landmarks-on run
                    itself stays bit-identical across the batch axis
                    (PR 7)
persistent          queries never crash: every answer is exact or
(kill-list) vs      ``degraded=True`` with ``degraded_reason=
clean               "storage"`` and sound intervals; quarantined
                    pages are never re-read past the probe cap
                    (``storage_degradation_sound``)
sharded vs          identical answer sets and degraded/budget flags,
monolithic          rewritten intervals stay sound
                    (``shard_consistency``); the sharded run itself
                    keeps its identity across the batch and
                    transient-fault axes (PR 10)
==================  =================================================

Every mode's results additionally run the full invariant-oracle
catalog (:mod:`repro.testkit.oracles`) against brute-force exact
ground truth.

``mutator`` is the injected-bug seam: a named transform applied to
every produced :class:`~repro.core.mr3.QueryResult` before checking,
simulating a deterministic implementation bug (e.g. an unsound upper
bound).  The self-check in the CLI and the demonstration test use it
to prove the oracles actually catch mutations — a harness that can't
fail is not a harness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.baseline import exact_knn
from repro.core.batch import BatchQueryExecutor
from repro.core.budget import QueryBudget
from repro.core.schedule import ResolutionSchedule
from repro.errors import QueryError
from repro.geometry.primitives import BoundingBox
from repro.geodesic.csr import (
    graph_dijkstra_with_parents,
    multi_source_dijkstra_csr,
    multi_source_heap,
)
from repro.geodesic.exact import ExactGeodesic
from repro.geodesic.pathnet import build_pathnet, vertex_key
from repro.testkit.generators import (
    Scenario,
    build_engine,
    build_mesh,
    build_sharded_engine,
    resolve_queries,
)
from repro.testkit.oracles import OracleContext, Violation, run_oracles
from repro.testkit.reference import (
    ExactGeodesicReference,
    build_pathnet_reference,
    csr_adjacency,
    dijkstra_reference,
    dijkstra_with_parents_reference,
    dmtm_cut_reference,
    dmtm_upper_bound_cut_reference,
    dmtm_upper_bounds_from_cut_reference,
    edge_network_reference,
    induced_adjacency,
    msdn_lower_bound_reference,
    upper_bound_bits,
)

EPS = 1e-6

#: Every cut-level DMTM resolution a preset schedule walks.
CUT_RESOLUTIONS = tuple(
    sorted(
        {
            r
            for preset in (1, 2, 3, "ea")
            for r in ResolutionSchedule.preset(preset).dmtm_levels
            if r <= 1.0
        }
    )
)

#: Relative tolerance between a multi-source label and the per-anchor
#: dict composition: about 4500 float64 ulps, above the rounding of any
#: pathnet path sum, far below any bound gap the ranking acts on.
MULTI_SOURCE_RTOL = 1e-12


# ----------------------------------------------------------------------
# injected-bug mutators
# ----------------------------------------------------------------------


def _mutate_shrink_ub(result):
    """Simulate an unsound upper bound: every reported ub is cut by
    10 % — a converged interval then sits below the true distance."""
    return replace(
        result,
        intervals=[(lb, 0.9 * ub) for lb, ub in result.intervals],
    )


def _mutate_inflate_lb(result):
    """Simulate an unsound lower bound (lb above the true dS)."""
    return replace(
        result,
        intervals=[(1.1 * lb + 1.0, ub) for lb, ub in result.intervals],
    )


def _mutate_drop_worst(result):
    """Simulate a truncated answer: the k-th neighbour is lost."""
    if len(result.object_ids) < 2:
        return result
    return replace(
        result,
        object_ids=result.object_ids[:-1],
        intervals=result.intervals[:-1],
    )


def _mutate_weaken_landmark_bound(result):
    """Simulate an inadmissible landmark lower bound: the last
    reported neighbour's interval is replaced by a point above any
    true surface distance (``ub >= dS``, so ``1.05*ub + 1 > dS``
    always) — exactly what a buggy landmark table that *over*-bounds
    would produce after the lb is folded into the interval."""
    if not result.intervals:
        return result
    _lb, ub = result.intervals[-1]
    if not math.isfinite(ub):
        return result
    bad = 1.05 * ub + 1.0
    return replace(
        result,
        intervals=list(result.intervals[:-1]) + [(bad, bad)],
    )


#: Named result mutators usable from the CLI (``--inject``), the
#: shrinker's repro cases and the demonstration tests.
MUTATORS = {
    "shrink_ub": _mutate_shrink_ub,
    "inflate_lb": _mutate_inflate_lb,
    "drop_worst": _mutate_drop_worst,
    "weaken_landmark_bound": _mutate_weaken_landmark_bound,
}


def get_mutator(name: str | None):
    if name is None:
        return None
    try:
        return MUTATORS[name]
    except KeyError:
        raise QueryError(
            f"unknown mutator {name!r}; use one of {sorted(MUTATORS)}"
        ) from None


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One violation with its execution-mode and query context."""

    mode: str
    query_index: int
    violation: Violation

    def __str__(self) -> str:
        return f"{self.mode} query#{self.query_index} {self.violation}"


@dataclass
class ScenarioReport:
    """Outcome of one scenario's full differential matrix."""

    scenario: Scenario
    findings: list[Finding] = field(default_factory=list)
    modes_run: list[str] = field(default_factory=list)
    queries_run: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        state = "OK" if self.ok else f"FAIL ({len(self.findings)})"
        return (
            f"{state:<9} {self.scenario.describe()} "
            f"modes={','.join(self.modes_run)} {self.seconds:.1f}s"
        )


def _fingerprint(result):
    return (
        tuple(result.object_ids),
        tuple(tuple(iv) for iv in result.intervals),
        result.metrics.logical_reads,
    )


def _compare(mode, index, base, other, findings, *, logical=True) -> None:
    b, o = _fingerprint(base), _fingerprint(other)
    labels = ("object ids", "intervals", "logical reads")
    for which, (lhs, rhs) in enumerate(zip(b, o)):
        if which == 2 and not logical:
            continue
        if lhs != rhs:
            findings.append(
                Finding(
                    mode=mode,
                    query_index=index,
                    violation=Violation(
                        oracle="mode_identity",
                        message=(
                            f"{labels[which]} diverged from the "
                            f"sequential baseline: {rhs!r} != {lhs!r}"
                        ),
                    ),
                )
            )


# ----------------------------------------------------------------------
# component oracles
# ----------------------------------------------------------------------


def component_mismatches(engine, query_vertices) -> list[tuple[int, str]]:
    """Production components vs their reference twins on one engine.

    Checks the pathnet builder once, then per query vertex: a full
    exact window propagation (distance bytes and window count), full
    and early-exit single-source searches on the pathnet, one
    restricted to a region (against the dict kernel over the subgraph
    the region induces), a two-anchor multi-source search toward the
    objects, the MSDN lower bound
    to every object at every resolution, without and with an ROI box,
    with the dummy-lb screen beside it, and the cut-level upper bounds
    to every object at every cut resolution, without and with an ROI
    box, pair by pair and in one search (in place on the compiled cut
    against keyed graphs on the dict kernels).
    Returns ``(query_index, message)`` pairs; ``-1`` for the builder.
    """
    mesh = engine.mesh
    spe = engine.dmtm.steiner_per_edge
    out: list[tuple[int, str]] = []
    graph = build_pathnet(mesh, spe)
    ref = build_pathnet_reference(mesh, spe)
    adjacency = ref.adjacency
    positions = graph.csr.positions
    if len(graph) != len(ref) or any(
        graph.key_of(i) != ref.key_of(i)
        or tuple(positions[i]) != tuple(ref.position_of(i))
        for i in range(len(ref))
    ) or csr_adjacency(graph.csr) != adjacency:
        out.append((-1, "array pathnet builder diverged from the reference"))
        return out
    object_vertices = sorted(
        {engine.objects.vertex_of(o) for o in range(len(engine.objects))}
    )
    targets = {graph.node_id(vertex_key(v)) for v in object_vertices}
    edge_network = edge_network_reference(mesh)
    msdn = engine.msdn
    dmtm = engine.dmtm
    for index, qv in enumerate(query_vertices):
        flat = ExactGeodesic(mesh, qv)
        ref_exact = ExactGeodesicReference(mesh, qv)
        if (flat.distances().tobytes(), flat.windows_created) != (
            ref_exact.distances().tobytes(), ref_exact.windows_created
        ):
            out.append((index, "exact window propagation diverged"))
        src = graph.node_id(vertex_key(qv))
        if graph_dijkstra_with_parents(graph, src) != (
            dijkstra_with_parents_reference(adjacency, src)
        ):
            out.append((index, "single-source sweep diverged"))
        if graph_dijkstra_with_parents(graph, src, targets=set(targets)) != (
            dijkstra_with_parents_reference(adjacency, src, targets=set(targets))
        ):
            out.append((index, "early-exit single-source search diverged"))
        # The region: the pathnet without the box of the one-ring of
        # the object farthest from the query (in place on the compiled
        # pathnet, by the dict kernel on the subgraph the region
        # induces, numbered in the same order); targets inside it.
        gaps = mesh.vertices[object_vertices] - mesh.vertices[qv]
        far = object_vertices[int(np.argmax(np.einsum("ij,ij->i", gaps, gaps)))]
        ring = [far] + [v for v, _w in edge_network[far]]
        hole = BoundingBox.of_points(mesh.vertices[ring, :2])
        region = ~(
            (positions[:, :2] >= hole.lo) & (positions[:, :2] <= hole.hi)
        ).all(axis=1)
        region[src] = True
        induced, sub_id = induced_adjacency(adjacency, region)
        inside = list(sub_id)
        in_region = {t for t in targets if region[t]}
        got_dist, got_parent = graph_dijkstra_with_parents(
            graph, src, targets=in_region, region=region
        )
        ref_dist, ref_parent = dijkstra_with_parents_reference(
            induced, sub_id[src], targets={sub_id[t] for t in in_region}
        )
        if list(got_dist.items()) != [
            (inside[u], d) for u, d in ref_dist.items()
        ] or got_parent != {inside[u]: inside[p] for u, p in ref_parent.items()}:
            out.append((index, "region-restricted single-source search diverged"))
        # Second anchor: a mesh neighbour offset by the edge length
        # (an embedded point's multi-anchor shape).
        sources = [(src, 0.0)] + [
            (graph.node_id(vertex_key(v)), float(w))
            for v, w in edge_network[qv][:1]
        ]
        found = multi_source_dijkstra_csr(graph.csr, sources, set(targets))
        heap = multi_source_heap(graph.csr, sources, set(targets))
        if found != heap:
            out.append((index, "multi-source kernels diverged"))
        # Against one dict search per anchor the values agree up to
        # rounding only: where two anchors' labels meet at a node, the
        # winner's path can sum an ulp above the loser's continuation.
        want: dict[int, float] = {}
        for node, offset in sources:
            dist = dijkstra_reference(adjacency, node, targets=set(targets))
            for t in targets:
                if t in dist and (t not in want or offset + dist[t] < want[t]):
                    want[t] = offset + dist[t]
        if set(want) != (targets & set(found.value)) or any(
            not math.isclose(found.value[t], v, rel_tol=MULTI_SOURCE_RTOL)
            for t, v in want.items()
        ):
            out.append((index, "multi-source values left the per-anchor "
                               "composition"))
        pq = mesh.vertices[qv]
        for ov in object_vertices:
            po = mesh.vertices[ov]
            box = BoundingBox.of_points(np.array([pq[:2], po[:2]]))
            for res in msdn.resolutions:
                for roi in (None, box):
                    got = msdn.lower_bound(pq, po, res, roi=roi, charge_io=False)
                    ref_lb = msdn_lower_bound_reference(
                        msdn, pq, po, res, roi=roi, charge_io=False
                    )
                    if got != ref_lb:
                        out.append(
                            (index, f"MSDN lower bound to vertex {ov} at "
                                    f"r={res} (roi={roi is not None}) "
                                    f"diverged: {got} != {ref_lb}")
                        )
                    # The dummy-lb screen, without and with the corridor
                    # around the bound's path, at thresholds an ulp
                    # either side of the reference value: an interval
                    # holding the bound that decides as
                    # msdn_screen_reference, from one reference run.
                    corridor = msdn.corridor_from_path(ref_lb.path_keys, res)
                    screened = msdn_lower_bound_reference(
                        msdn, pq, po, res, roi=roi, corridor=corridor,
                        charge_io=False,
                    ).value
                    for cor, value in ((None, ref_lb.value), (corridor, screened)):
                        for t in (float(np.nextafter(value, -np.inf)), value,
                                  float(np.nextafter(value, np.inf))):
                            lo, hi = msdn.corridor_interval(
                                pq, po, res, t, roi=roi, corridor=cor
                            )
                            if not (lo <= value <= hi and (lo >= t or hi < t)):
                                out.append(
                                    (index, f"MSDN screen to vertex {ov} at "
                                            f"r={res} (roi={roi is not None}, "
                                            f"corridor={cor is not None}) "
                                            f"gave ({lo!r}, {hi!r}) at "
                                            f"threshold {t!r}, bound {value!r}")
                                )
        # The ROI: the box of the query and the nearer half of the
        # objects (by vertex id order, a fixed but uneven region).
        half = object_vertices[: max(1, len(object_vertices) // 2)]
        cut_box = BoundingBox.of_points(mesh.vertices[[qv, *half], :2])
        for res in CUT_RESOLUTIONS:
            for roi in (None, cut_box):
                network = dmtm.extract_network(res, roi, charge_io=False)
                ref_net = dmtm_cut_reference(dmtm, res, roi, charge_io=False)
                got = dmtm.upper_bounds_from(qv, object_vertices, network)
                want = dmtm_upper_bounds_from_cut_reference(
                    dmtm, qv, object_vertices, ref_net
                )
                for ov in object_vertices:
                    single = dmtm.upper_bound(qv, ov, res, network=network)
                    ref_single = dmtm_upper_bound_cut_reference(dmtm, qv, ov, ref_net)
                    for label, lhs, rhs in (
                        ("one search", got[ov], want[ov]),
                        ("pair", single, ref_single),
                    ):
                        if upper_bound_bits(lhs) != upper_bound_bits(rhs):
                            out.append(
                                (index, f"cut upper bound ({label}) to vertex "
                                        f"{ov} at r={res} "
                                        f"(roi={roi is not None}) diverged: "
                                        f"{lhs} != {rhs}")
                            )
    return out


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------


def run_scenario(
    scenario: Scenario,
    oracle_names=None,
    mutator=None,
    modes=None,
) -> ScenarioReport:
    """Execute one scenario under the full mode matrix.

    ``modes`` restricts the matrix (default: every applicable mode);
    ``mutator`` is a named key into :data:`MUTATORS` or a callable
    applied to every produced result before checking.
    """
    if isinstance(mutator, str):
        mutator = get_mutator(mutator)
    mutate = mutator if mutator is not None else (lambda r: r)
    wanted = set(modes) if modes is not None else None

    def active(mode: str) -> bool:
        return wanted is None or mode in wanted

    start = time.perf_counter()
    report = ScenarioReport(scenario=scenario)
    mesh = build_mesh(scenario.terrain)
    engine = build_engine(scenario, mesh)
    queries = resolve_queries(scenario, mesh, engine.objects)
    report.queries_run = len(queries)

    # Exact ground truth: the full ranking per query (ascending dS).
    truths = [
        exact_knn(mesh, engine.objects, q.vertex, len(engine.objects))
        for q in queries
    ]

    def check(mode: str, index: int, result, **extra) -> None:
        ctx = OracleContext(
            result=result,
            truth=truths[index],
            k=queries[index].k,
            exact_sets=scenario.terrain.flat,
            **extra,
        )
        for violation in run_oracles(ctx, oracle_names):
            report.findings.append(
                Finding(mode=mode, query_index=index, violation=violation)
            )

    # ------------------------------------------------------------------
    # baseline: sequential, clean storage, unbudgeted
    # ------------------------------------------------------------------
    baseline = []
    report.modes_run.append("baseline")
    for index, q in enumerate(queries):
        result = mutate(
            engine.query(q.vertex, q.k, step_length=q.step_length)
        )
        baseline.append(result)
        check("baseline", index, result)

    # ------------------------------------------------------------------
    # components vs oracles: the array data path against the reference
    # implementations it replaced, on this scenario's terrain
    # ------------------------------------------------------------------
    if active("oracle"):
        report.modes_run.append("oracle")
        for index, message in component_mismatches(
            engine, [q.vertex for q in queries]
        ):
            report.findings.append(
                Finding(
                    mode="oracle", query_index=index,
                    violation=Violation(
                        oracle="component_identity", message=message
                    ),
                )
            )

    # ------------------------------------------------------------------
    # batch w=N vs sequential: bit-identity through the executor
    # ------------------------------------------------------------------
    if active("batch") and len(queries) > 0:
        report.modes_run.append("batch")
        executor = BatchQueryExecutor(
            engine, workers=max(1, scenario.batch_workers)
        )
        batch_report = executor.run(
            [
                {"vertex": q.vertex, "k": q.k, "step_length": q.step_length}
                for q in queries
            ]
        )
        for error in batch_report.errors:
            report.findings.append(
                Finding(
                    mode="batch",
                    query_index=error.index,
                    violation=Violation(
                        oracle="mode_identity",
                        message=f"batch query failed: {error.kind}: "
                                f"{error.message}",
                    ),
                )
            )
        for index, result in enumerate(batch_report.results):
            if result is None:
                continue
            result = mutate(result)
            check("batch", index, result)
            _compare("batch", index, baseline[index], result,
                     report.findings)

    # ------------------------------------------------------------------
    # landmarks on vs off: same answers, admissible bounds — and the
    # landmark run must itself stay bit-identical across the batch
    # axis (the landmarks-on/off axis composes with it)
    # ------------------------------------------------------------------
    if active("landmarks"):
        report.modes_run.append("landmarks")
        lm_engine = engine.with_landmarks(4)
        object_vertices = {
            int(obj): engine.objects.vertex_of(int(obj))
            for obj, _d in (truths[0] if truths else [])
        }
        lm_results = []
        for index, q in enumerate(queries):
            result = mutate(
                lm_engine.query(q.vertex, q.k, step_length=q.step_length)
            )
            lm_results.append(result)
            check(
                "landmarks", index, result,
                landmarks=lm_engine.landmarks,
                object_vertices=object_vertices,
                baseline=baseline[index],
            )
        executor = BatchQueryExecutor(
            lm_engine, workers=max(1, scenario.batch_workers)
        )
        batch_report = executor.run(
            [
                {"vertex": q.vertex, "k": q.k, "step_length": q.step_length}
                for q in queries
            ]
        )
        for error in batch_report.errors:
            report.findings.append(
                Finding(
                    mode="landmarks+batch",
                    query_index=error.index,
                    violation=Violation(
                        oracle="mode_identity",
                        message=f"batch query failed: {error.kind}: "
                                f"{error.message}",
                    ),
                )
            )
        for index, result in enumerate(batch_report.results):
            if result is None:
                continue
            _compare("landmarks+batch", index, lm_results[index],
                     mutate(result), report.findings)

    # ------------------------------------------------------------------
    # budgeted vs exhaustive: identity when untripped, bound otherwise
    # ------------------------------------------------------------------
    if active("budget") and scenario.budget_pages is not None:
        report.modes_run.append("budget")
        budget = QueryBudget(max_pages=scenario.budget_pages)
        for index, q in enumerate(queries):
            result = mutate(
                engine.query(
                    q.vertex, q.k, step_length=q.step_length, budget=budget
                )
            )
            check("budget", index, result)
            if result.budget_reason is None:
                # The budget never tripped: the documented identity.
                _compare("budget", index, baseline[index], result,
                         report.findings)

    # ------------------------------------------------------------------
    # faulted + retry vs clean: identical answers, counters reconcile
    # ------------------------------------------------------------------
    if active("faults") and scenario.fault is not None:
        report.modes_run.append("faults")
        faulted = build_engine(scenario, mesh, with_faults=True)
        for index, q in enumerate(queries):
            result = mutate(
                faulted.query(q.vertex, q.k, step_length=q.step_length)
            )
            check("faults", index, result)
            _compare("faults", index, baseline[index], result,
                     report.findings)
        stats = faulted.pages.fault_stats
        injector = faulted.pages.fault_injector
        if stats.reads_failed_total:
            report.findings.append(
                Finding(
                    mode="faults", query_index=-1,
                    violation=Violation(
                        oracle="fault_recovery",
                        message=(
                            f"{stats.reads_failed_total} reads exhausted "
                            f"the {scenario.fault.retry_attempts}-attempt "
                            "retry policy"
                        ),
                    ),
                )
            )
        expected = injector.injected_total - stats.reads_failed_total
        if stats.retries_total != expected:
            report.findings.append(
                Finding(
                    mode="faults", query_index=-1,
                    violation=Violation(
                        oracle="fault_recovery",
                        message=(
                            f"retries_total={stats.retries_total} != "
                            f"injected_total-"
                            f"reads_failed_total={expected}"
                        ),
                    ),
                )
            )

    # ------------------------------------------------------------------
    # persistent faults (kill-list): no crash, answers exact or
    # storage-degraded-and-sound, quarantined pages never hammered
    # ------------------------------------------------------------------
    if (
        active("persistent")
        and scenario.fault is not None
        and scenario.fault.dead_page_fraction > 0.0
    ):
        from repro.errors import SurfKnnError

        report.modes_run.append("persistent")
        dead_engine = build_engine(
            scenario, mesh, with_faults=True, persistent=True
        )
        for index, q in enumerate(queries):
            try:
                result = mutate(
                    dead_engine.query(q.vertex, q.k, step_length=q.step_length)
                )
            except SurfKnnError as exc:
                report.findings.append(
                    Finding(
                        mode="persistent", query_index=index,
                        violation=Violation(
                            oracle="storage_degradation_sound",
                            message=(
                                "degraded-mode query crashed instead of "
                                f"degrading: {type(exc).__name__}: {exc}"
                            ),
                        ),
                    )
                )
                continue
            if result.degraded and result.degraded_reason != "storage":
                report.findings.append(
                    Finding(
                        mode="persistent", query_index=index,
                        violation=Violation(
                            oracle="storage_degradation_sound",
                            message=(
                                "unbudgeted kill-list query degraded with "
                                f"reason {result.degraded_reason!r}, "
                                "expected 'storage'"
                            ),
                        ),
                    )
                )
            check(
                "persistent", index, result,
                quarantine=dead_engine.pages.quarantine,
                fault_injector=dead_engine.pages.fault_injector,
                retry_attempts=scenario.fault.retry_attempts,
            )

    # ------------------------------------------------------------------
    # sharded vs monolithic: identical answer sets and flags, sound
    # rewritten intervals — composed with the batch and
    # transient-fault axes (budget and kill-list legs stay
    # monolithic: budget accounting and dead-page schedules are
    # whole-store properties a tile split deliberately changes)
    # ------------------------------------------------------------------
    if active("shards") and scenario.terrain.tiles > 1:
        report.modes_run.append("shards")
        sharded = build_sharded_engine(scenario)
        shard_results = []
        for index, q in enumerate(queries):
            result = mutate(
                sharded.query(q.vertex, q.k, step_length=q.step_length)
            )
            shard_results.append(result)
            check(
                "shards", index, result, shard_baseline=baseline[index]
            )
        executor = BatchQueryExecutor(
            sharded, workers=max(1, scenario.batch_workers)
        )
        batch_report = executor.run(
            [
                {"vertex": q.vertex, "k": q.k, "step_length": q.step_length}
                for q in queries
            ]
        )
        for error in batch_report.errors:
            report.findings.append(
                Finding(
                    mode="shards+batch",
                    query_index=error.index,
                    violation=Violation(
                        oracle="shard_consistency",
                        message=f"batch query failed: {error.kind}: "
                                f"{error.message}",
                    ),
                )
            )
        for index, result in enumerate(batch_report.results):
            if result is None:
                continue
            check(
                "shards+batch", index, mutate(result),
                shard_baseline=baseline[index],
            )
        if (
            scenario.fault is not None
            and scenario.fault.dead_page_fraction == 0.0
        ):
            faulted_sharded = build_sharded_engine(
                scenario, with_faults=True
            )
            for index, q in enumerate(queries):
                result = mutate(
                    faulted_sharded.query(
                        q.vertex, q.k, step_length=q.step_length
                    )
                )
                check(
                    "shards+faults", index, result,
                    shard_baseline=baseline[index],
                )

    report.seconds = time.perf_counter() - start
    return report


def scenario_fails(scenario: Scenario, **kwargs) -> bool:
    """Failure predicate used by the shrinker."""
    return not run_scenario(scenario, **kwargs).ok
