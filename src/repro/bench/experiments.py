"""Experiment drivers — one per figure of the paper's Section 5.

Every driver returns ``{"tables": [str, ...], "rows": ...}`` where
``rows`` holds the raw series for programmatic checks (the pytest
benches assert the paper's qualitative shapes on them).  All drivers
take a ``quick`` flag: quick mode shrinks sweeps for CI; full mode is
what EXPERIMENTS.md records.
"""

from __future__ import annotations

import math
import time
from functools import partial

import numpy as np

from repro.bench.runner import format_table
from repro.bench.workload import build_engine, mesh_for, query_vertices, vertex_pairs
from repro.geodesic.exact import ExactGeodesic
from repro.geodesic.kanai_suzuki import kanai_suzuki_distance
from repro.multires.dmtm import RESOLUTION_PATHNET


# ----------------------------------------------------------------------
# Fig. 7 — Chen & Han (exact) vs Enhanced Approximation, response time
# ----------------------------------------------------------------------

def fig7(quick: bool = False, sizes=None, pairs_per_size: int = 2) -> dict:
    """Single-pair surface distance: exact window propagation (our
    Chen-Han stand-in, "CH") vs Kanai-Suzuki selective refinement
    ("EA"), as mesh size grows.  The paper's Fig. 7 shows CH blowing
    up quadratically while EA stays flat."""
    if sizes is None:
        sizes = (9, 13, 17, 25) if quick else (9, 13, 17, 25, 33, 41, 49)
    rows = []
    for size in sizes:
        mesh = mesh_for("BH", size)
        pairs = vertex_pairs(mesh, pairs_per_size, seed=3)
        ch_time = 0.0
        ea_time = 0.0
        for a, b in pairs:
            t0 = time.process_time()
            ExactGeodesic(mesh, a).distance_to(b)
            ch_time += time.process_time() - t0
            t0 = time.process_time()
            kanai_suzuki_distance(mesh, a, b, tolerance=0.03)
            ea_time += time.process_time() - t0
        rows.append(
            {
                "vertices": mesh.num_vertices,
                "ch_seconds": ch_time / len(pairs),
                "ea_seconds": ea_time / len(pairs),
                "ratio": (ch_time / ea_time) if ea_time > 0 else None,
            }
        )
    table = format_table(
        "Fig. 7 — exact (CH) vs approximate (EA) single-pair time",
        ["vertices", "ch_seconds", "ea_seconds", "ratio"],
        rows,
    )
    return {"tables": [table], "rows": rows}


# ----------------------------------------------------------------------
# Fig. 8 — distance range accuracy ε = lb/ub
# ----------------------------------------------------------------------

def fig8(quick: bool = False, size: int = 33, num_pairs: int | None = None) -> dict:
    """Accuracy ε = lb/ub against DMTM resolution, one curve per SDN
    resolution plus the Euclidean-lb baseline (paper Fig. 8)."""
    if num_pairs is None:
        num_pairs = 4 if quick else 10
    dmtm_levels = (
        (0.05, 0.5, 1.0, RESOLUTION_PATHNET)
        if quick
        else (0.05, 0.125, 0.25, 0.5, 0.75, 1.0, RESOLUTION_PATHNET)
    )
    sdn_levels = (0.25, 0.5, 1.0) if quick else (0.25, 0.375, 0.5, 0.75, 1.0)
    engine = build_engine("BH", size=size, with_storage=False)
    mesh = engine.mesh
    pairs = vertex_pairs(mesh, num_pairs, seed=5)

    euclid = {
        (a, b): float(np.linalg.norm(mesh.vertices[a] - mesh.vertices[b]))
        for a, b in pairs
    }
    rows = []
    for res_u in dmtm_levels:
        ubs = {}
        for a, b in pairs:
            result = engine.dmtm.upper_bound(a, b, res_u)
            ubs[(a, b)] = result.value if result is not None else None
        row = {"dmtm_pct": res_u * 100.0}
        # Euclidean-lb baseline.
        accs = [
            euclid[p] / ubs[p] for p in pairs if ubs[p]
        ]
        row["euclid_lb"] = float(np.mean(accs)) if accs else None
        for res_l in sdn_levels:
            accs = []
            for a, b in pairs:
                if not ubs[(a, b)]:
                    continue
                lb = engine.msdn.lower_bound(
                    mesh.vertices[a], mesh.vertices[b], res_l
                ).value
                accs.append(min(lb, ubs[(a, b)]) / ubs[(a, b)])
            row[f"sdn_{res_l * 100:g}%"] = float(np.mean(accs)) if accs else None
        rows.append(row)
    columns = ["dmtm_pct", "euclid_lb"] + [f"sdn_{r * 100:g}%" for r in sdn_levels]
    table = format_table(
        "Fig. 8 — distance range accuracy (mean lb/ub)", columns, rows
    )
    return {"tables": [table], "rows": rows}


# ----------------------------------------------------------------------
# Fig. 9 — effect of the integrated I/O region
# ----------------------------------------------------------------------

def fig9(
    quick: bool = False,
    size: int | None = None,
    density: float = 4.0,
    ks=None,
    queries_per_k: int | None = None,
) -> dict:
    """Pages accessed vs k with I/O-region integration on vs off
    (paper Fig. 9; o = 4, s = 2)."""
    if size is None:
        size = 33 if quick else 49
    if ks is None:
        ks = (3, 9, 15) if quick else (3, 6, 9, 12, 15, 18, 21, 24, 27, 30)
    if queries_per_k is None:
        queries_per_k = 1 if quick else 2
    engine = build_engine("BH", size=size, density=density)
    queries = query_vertices(engine.mesh, queries_per_k, seed=9)
    rows = []
    for k in ks:
        pages = {True: [], False: []}
        dmtm_on, msdn_on = [], []
        for option in (True, False):
            for qv in queries:
                result = engine.query(
                    qv, k, step_length=2, integrate_io=option
                )
                pages[option].append(result.metrics.pages_accessed)
                if option:
                    by_class = result.metrics.reads_by_class
                    dmtm_on.append(by_class.get("dmtm", 0))
                    msdn_on.append(by_class.get("msdn", 0))
        rows.append(
            {
                "k": k,
                "pages_on": float(np.mean(pages[True])),
                "pages_off": float(np.mean(pages[False])),
                "saving": 1.0 - float(np.mean(pages[True])) / max(
                    float(np.mean(pages[False])), 1.0
                ),
                "pages_dmtm": float(np.mean(dmtm_on)),
                "pages_msdn": float(np.mean(msdn_on)),
            }
        )
    table = format_table(
        "Fig. 9 — integrated I/O region (pages accessed, s=2, o=4)",
        ["k", "pages_on", "pages_off", "saving", "pages_dmtm", "pages_msdn"],
        rows,
    )
    return {"tables": [table], "rows": rows}


# ----------------------------------------------------------------------
# Batch execution — concurrent sk-NN with a shared bound cache
# ----------------------------------------------------------------------

def batch(
    quick: bool = False,
    batch: int | None = None,
    workers: int = 4,
    size: int | None = None,
    density: float = 4.0,
    ks=None,
    queries_per_k: int | None = None,
) -> dict:
    """Not a paper figure: throughput of the fig9 workload run through
    :class:`repro.core.batch.BatchQueryExecutor` (shared bound cache,
    thread pool) vs a plain sequential ``engine.query`` loop.

    The executor must be *observationally identical* to the loop —
    same result sets, same intervals, same per-query logical reads —
    so each row records those checks alongside throughput and latency
    percentiles.  An executor row also carries its bound cache's hit
    rate and ``cache_by_kind``, the hits and misses of each kind of
    cached computation (``ub``, ``ubr``, ``lb``, ``ks``, ``screen``;
    see :meth:`~repro.core.batch.BoundCache.stats`)."""
    from repro.core.batch import BatchQuery, BatchQueryExecutor, BoundCache

    if size is None:
        size = 33 if quick else 49
    if ks is None:
        ks = (3, 9, 15) if quick else (3, 6, 9, 12, 15, 18, 21, 24, 27, 30)
    if queries_per_k is None:
        queries_per_k = 1 if quick else 2
    if batch is None:
        batch = 12 if quick else 60
    engine = build_engine("BH", size=size, density=density)
    qvs = query_vertices(engine.mesh, queries_per_k, seed=9)
    base = [(qv, k) for k in ks for qv in qvs]
    specs = [
        BatchQuery(vertex=base[i % len(base)][0], k=base[i % len(base)][1],
                   step_length=2)
        for i in range(batch)
    ]

    # Sequential baseline: the pre-batch code path, no bound cache.
    t0 = time.perf_counter()
    seq = [
        engine.query(s.vertex, s.k, step_length=s.step_length) for s in specs
    ]
    seq_wall = time.perf_counter() - t0
    seq_qps = len(specs) / seq_wall if seq_wall > 0 else float("inf")

    rows = [
        {
            "mode": "sequential",
            "workers": 0,
            "queries": len(specs),
            "wall_seconds": seq_wall,
            "throughput_qps": seq_qps,
            "speedup_vs_seq": 1.0,
            "latency_p50": None,
            "latency_p95": None,
            "latency_p99": None,
            "identical_results": True,
            "identical_logical_reads": True,
            "cache_hit_rate": None,
            "cache_by_kind": None,
        }
    ]
    for nworkers in (1, workers):
        report = BatchQueryExecutor(
            engine, workers=nworkers, bound_cache=BoundCache()
        ).run(specs)
        same_results = all(
            a.object_ids == b.object_ids and a.intervals == b.intervals
            for a, b in zip(seq, report.results)
        )
        # Logical reads are deterministic per query; physical reads
        # depend on shared buffer-pool state under interleaving, so
        # only the logical counts are pinned here.
        same_reads = all(
            a.metrics.logical_reads == b.metrics.logical_reads
            for a, b in zip(seq, report.results)
        )
        summary = report.summary()
        rows.append(
            {
                "mode": f"batch w={nworkers}",
                "workers": nworkers,
                "queries": len(specs),
                "wall_seconds": report.wall_seconds,
                "throughput_qps": summary["throughput_qps"],
                "speedup_vs_seq": summary["throughput_qps"] / seq_qps,
                "latency_p50": summary["latency_p50"],
                "latency_p95": summary["latency_p95"],
                "latency_p99": summary["latency_p99"],
                "identical_results": same_results,
                "identical_logical_reads": same_reads,
                "cache_hit_rate": summary["bound_cache"]["hit_rate"],
                "cache_by_kind": summary["bound_cache"]["by_kind"],
            }
        )
    table = format_table(
        f"Batch execution — fig9 workload, {len(specs)} queries (BH, s=2)",
        [
            "mode", "queries", "wall_seconds", "throughput_qps",
            "speedup_vs_seq", "latency_p50", "latency_p95", "latency_p99",
            "identical_results", "identical_logical_reads", "cache_hit_rate",
        ],
        rows,
    )
    return {"tables": [table], "rows": rows}


# ----------------------------------------------------------------------
# Related-work comparison (§2.1): network k-NN vs surface k-NN
# ----------------------------------------------------------------------

def related(quick: bool = False, size: int | None = None, k: int = 5) -> dict:
    """Not a paper figure, but its §2.1 argument made measurable:
    network k-NN (INE / IER over the mesh edge network) vs MR3 vs the
    exact surface answer — CPU cost and answer agreement."""
    from repro.core.baseline import exact_knn
    from repro.core.network_baselines import ier_knn, ine_knn

    if size is None:
        size = 17 if quick else 33
    engine = build_engine("BH", size=size, density=6.0, with_storage=False)
    queries = query_vertices(engine.mesh, 2 if quick else 5, seed=21)
    # Exact distances once per query, for both agreement metrics.
    truth_sets: dict[int, set] = {}
    truth_dists: dict[int, dict] = {}
    for qv in queries:
        pairs = exact_knn(engine.mesh, engine.objects, qv, len(engine.objects))
        truth_dists[qv] = dict(pairs)
        truth_sets[qv] = {obj for obj, _d in pairs[:k]}

    def tie_tolerant_match(qv, got: set) -> bool:
        """Exact-set match, or the extras are all within the 3 %
        surface-distance tolerance of the true k-th distance."""
        want = truth_sets[qv]
        if got == want:
            return True
        kth = sorted(truth_dists[qv].values())[k - 1]
        return all(truth_dists[qv][obj] <= kth * 1.03 for obj in got - want)

    rows = []
    for name, runner in (
        ("INE (network)", lambda qv: ine_knn(engine.mesh, engine.objects, qv, k)),
        ("IER (network)", lambda qv: ier_knn(engine.mesh, engine.objects, qv, k)),
        ("MR3 s=1", lambda qv: [
            (obj, None) for obj in engine.query(qv, k, step_length=1).object_ids
        ]),
        ("exact surface", lambda qv: exact_knn(engine.mesh, engine.objects, qv, k)),
    ):
        cpu = 0.0
        exact_agree = 0
        tied_agree = 0
        for qv in queries:
            t0 = time.process_time()
            result = runner(qv)
            cpu += time.process_time() - t0
            got = {obj for obj, _d in result}
            exact_agree += got == truth_sets[qv]
            tied_agree += tie_tolerant_match(qv, got)
        rows.append(
            {
                "method": name,
                "cpu_seconds": cpu / len(queries),
                "agreement": exact_agree / len(queries),
                "agreement_3pct": tied_agree / len(queries),
            }
        )
    table = format_table(
        f"Related work — network vs surface k-NN (k={k}, BH)",
        ["method", "cpu_seconds", "agreement", "agreement_3pct"],
        rows,
    )
    return {"tables": [table], "rows": rows}


# ----------------------------------------------------------------------
# Figs 10 & 11 — effect of k and of object density
# ----------------------------------------------------------------------

_SERIES = (("s=1", "mr3", 1), ("s=2", "mr3", 2), ("s=3", "mr3", 3), ("EA", "ea", 1))


_DIJKSTRA_COUNTERS = (
    "geodesic.dijkstra.calls",
    "geodesic.dijkstra.settled",
    "geodesic.dijkstra.relaxations",
)


# Phases reported as per-query mean self-seconds columns in the
# fig10/fig11 rows ("query" is the root; its self time is plumbing).
_PROFILE_PHASES = (
    "spatial-filter",
    "interval-ranking",
    "bound-composition",
    "graph-kernel",
    "frontier-relaxation",
    "landmark-bounds",
    "refinement",
    "page-io",
)


def _phase_column(phase: str) -> str:
    return "phase_" + phase.replace("-", "_")


def _run_series(engine, queries, k) -> dict:
    """Mean metrics of each algorithm configuration over the queries.

    Alongside the timing/page metrics, each label carries the mean
    per-query Dijkstra kernel work (calls / settled nodes /
    relaxations), measured as registry counter deltas around each
    query, plus the mean self-seconds of every profiled phase
    (``phase_*`` columns) — the ``--metrics-out`` view of how much
    search the kernels actually did and where the wall time went.

    Queries run under a profiling :class:`~repro.obs.ObsContext`: the
    ambient one when the caller already activated a profiling context
    (``--profile-out`` does), otherwise a local context so bench
    counters never leak into the process default registry."""
    from repro.obs.context import ObsContext, current

    ambient = current()
    ctx = (
        ambient
        if ambient.profiling
        else ObsContext("bench", profiling=True)
    )
    counters = [ctx.registry.counter(name) for name in _DIJKSTRA_COUNTERS]
    out = {}
    for label, method, step in _SERIES:
        total, cpu, pages, logical = [], [], [], []
        pages_dmtm, pages_msdn = [], []
        kernel_work: dict[str, list] = {name: [] for name in _DIJKSTRA_COUNTERS}
        phase_work: dict[str, list] = {name: [] for name in _PROFILE_PHASES}
        for qv in queries:
            before = [c.value for c in counters]
            result = engine.query(
                qv, k, method=method, step_length=step, obs=ctx
            )
            for name, counter, start in zip(
                _DIJKSTRA_COUNTERS, counters, before
            ):
                kernel_work[name].append(counter.value - start)
            profile = result.profile()
            by_phase = (
                profile.self_seconds_by_phase() if profile is not None else {}
            )
            for name in _PROFILE_PHASES:
                phase_work[name].append(by_phase.get(name, 0.0))
            total.append(result.metrics.total_seconds)
            cpu.append(result.metrics.cpu_seconds)
            pages.append(result.metrics.pages_accessed)
            logical.append(result.metrics.logical_reads)
            by_class = result.metrics.reads_by_class
            pages_dmtm.append(by_class.get("dmtm", 0))
            pages_msdn.append(by_class.get("msdn", 0))
        out[label] = {
            "total": float(np.mean(total)),
            "cpu": float(np.mean(cpu)),
            "pages": float(np.mean(pages)),
            "logical": float(np.mean(logical)),
            "pages_dmtm": float(np.mean(pages_dmtm)),
            "pages_msdn": float(np.mean(pages_msdn)),
            "dijkstra_calls": float(np.mean(kernel_work[_DIJKSTRA_COUNTERS[0]])),
            "dijkstra_settled": float(np.mean(kernel_work[_DIJKSTRA_COUNTERS[1]])),
            "dijkstra_relaxations": float(
                np.mean(kernel_work[_DIJKSTRA_COUNTERS[2]])
            ),
            **{
                _phase_column(name): float(np.mean(phase_work[name]))
                for name in _PROFILE_PHASES
            },
        }
    return out


def _metric_tables(title_prefix: str, xlabel: str, per_x: dict) -> list[str]:
    tables = []
    labels = [label for label, _m, _s in _SERIES]
    for metric, name in (
        ("total", "total time (s)"),
        ("cpu", "CPU time (s)"),
        ("pages", "pages accessed"),
    ):
        rows = [
            {xlabel: x, **{label: series[label][metric] for label in labels}}
            for x, series in per_x.items()
        ]
        tables.append(
            format_table(f"{title_prefix} — {name}", [xlabel] + labels, rows)
        )
    # Where the wall time goes for the paper's canonical s=2 config;
    # the other series carry the same phase_* columns in the raw rows.
    phase_cols = [_phase_column(p) for p in _PROFILE_PHASES]
    rows = [
        {xlabel: x, **{c: series["s=2"][c] for c in phase_cols}}
        for x, series in per_x.items()
        if "s=2" in series
    ]
    if rows:
        tables.append(
            format_table(
                f"{title_prefix} — phase self-seconds (s=2)",
                [xlabel] + phase_cols,
                rows,
            )
        )
    return tables


def fig10(
    quick: bool = False,
    size: int | None = None,
    density: float = 4.0,
    ks=None,
    queries_per_k: int | None = None,
    datasets=("BH", "EP"),
) -> dict:
    """Effect of k (o = 4): total time, CPU time and pages accessed
    for MR3 at s = 1, 2, 3 vs the EA benchmark, on both datasets
    (paper Fig. 10 a-f)."""
    if size is None:
        size = 33 if quick else 49
    if ks is None:
        ks = (3, 9, 15) if quick else (3, 6, 9, 12, 15, 18, 21, 24, 27, 30)
    if queries_per_k is None:
        queries_per_k = 1 if quick else 2
    tables = []
    rows: dict[str, dict] = {}
    for name in datasets:
        engine = build_engine(name, size=size, density=density)
        queries = query_vertices(engine.mesh, queries_per_k, seed=9)
        per_k = {k: _run_series(engine, queries, k) for k in ks}
        rows[name] = per_k
        tables.extend(
            _metric_tables(f"Fig. 10 ({name}) — effect of k", "k", per_k)
        )
    return {"tables": tables, "rows": rows}


def fig11(
    quick: bool = False,
    size: int | None = None,
    k: int = 10,
    densities=None,
    queries_per_o: int | None = None,
    datasets=("BH", "EP"),
) -> dict:
    """Effect of object density (k = 10), same series and metrics as
    Fig. 10 (paper Fig. 11 a-f)."""
    if size is None:
        size = 33 if quick else 49
    if densities is None:
        densities = (2, 5, 8) if quick else (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    if queries_per_o is None:
        queries_per_o = 1 if quick else 2
    tables = []
    rows: dict[str, dict] = {}
    for name in datasets:
        engine = build_engine(name, size=size, density=max(densities))
        queries = query_vertices(engine.mesh, queries_per_o, seed=9)
        per_o = {}
        for density in densities:
            engine.set_objects(density=density, seed=1)
            if k > len(engine.objects):
                continue
            per_o[density] = _run_series(engine, queries, k)
        rows[name] = per_o
        tables.extend(
            _metric_tables(
                f"Fig. 11 ({name}) — effect of object density", "o", per_o
            )
        )
    return {"tables": tables, "rows": rows}


# ----------------------------------------------------------------------
# Resilience: fault-injection sweep and budgeted (anytime) queries
# ----------------------------------------------------------------------

def faults(
    quick: bool = False,
    size: int | None = None,
    density: float = 4.0,
    k: int = 5,
    queries: int | None = None,
    workers: int = 8,
    rates=None,
    budgets=None,
    seed: int = 11,
) -> dict:
    """Not a paper figure: the resilience contract made measurable.

    Table 1 sweeps the injected fault rate (split evenly between
    transient read errors and silent corruption) over a concurrent
    batch and reports what survived: failed/skipped queries, the
    retry/corruption counters, whether they reconcile with the
    injector's own log, and whether every answer still matches the
    fault-free engine (retries must be invisible in results).

    Table 2 sweeps per-query page budgets on the clean engine and
    reports the degraded rate and the error-bound sizes — the
    anytime-query cost/accuracy trade-off.
    """
    from repro.core import SurfaceKNNEngine
    from repro.core.batch import BatchQueryExecutor
    from repro.core.budget import QueryBudget
    from repro.storage.faults import FaultInjector, RetryPolicy

    if size is None:
        size = 17 if quick else 33
    if queries is None:
        queries = 24 if quick else 100
    if rates is None:
        rates = (0.0, 0.02, 0.05) if quick else (0.0, 0.01, 0.02, 0.05, 0.10)
    if budgets is None:
        budgets = (None, 200, 50, 10) if quick else (None, 500, 200, 50, 10)

    mesh = mesh_for("BH", size)
    reference = SurfaceKNNEngine(mesh, density=density, seed=1)
    qvs = query_vertices(mesh, min(queries, 32), seed=seed)
    specs = [(qvs[i % len(qvs)], k) for i in range(queries)]
    baseline = [reference.query(v, kk) for v, kk in specs]

    fault_rows = []
    for rate in rates:
        injector = (
            FaultInjector(
                seed=seed, transient_rate=rate / 2, corrupt_rate=rate / 2
            )
            if rate > 0
            else None
        )
        engine = SurfaceKNNEngine(
            mesh, density=density, seed=1,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=6),
        )
        report = BatchQueryExecutor(engine, workers=workers).run(specs)
        summary = report.summary()
        stats = engine.pages.fault_stats
        injected = injector.injected_total if injector is not None else 0
        match = sum(
            1
            for got, want in zip(report.results, baseline)
            if got is not None and got.object_ids == want.object_ids
        )
        fault_rows.append(
            {
                "fault_rate": rate,
                "queries": len(specs),
                "failed": summary["failed"],
                "skipped": summary["skipped"],
                "injected": injected,
                "retries": stats.retries_total,
                "transients": stats.transient_faults_total,
                "corruptions": stats.corruptions_total,
                "reads_failed": stats.reads_failed_total,
                # Every injected fault fails one attempt; each failed
                # attempt is retried unless its read gave up entirely.
                "counters_match": (
                    stats.retries_total
                    == injected - stats.reads_failed_total
                ),
                "match_rate": match / len(specs),
            }
        )

    budget_rows = []
    for max_pages in budgets:
        budget = QueryBudget(max_pages=max_pages) if max_pages else None
        results = [
            reference.query(v, kk, budget=budget) for v, kk in specs
        ]
        degraded = [r for r in results if r.degraded]
        exact = sum(
            1
            for got, want in zip(results, baseline)
            if got.object_ids == want.object_ids
        )
        budget_rows.append(
            {
                "max_pages": max_pages if max_pages else "unlimited",
                "queries": len(specs),
                "degraded_rate": len(degraded) / len(specs),
                "exact_match_rate": exact / len(specs),
                "mean_max_error": (
                    sum(r.max_error for r in degraded) / len(degraded)
                    if degraded
                    else 0.0
                ),
                "mean_logical_reads": (
                    sum(r.metrics.logical_reads for r in results)
                    / len(results)
                ),
            }
        )

    tables = [
        format_table(
            f"Fault injection — {queries} queries, {workers} workers "
            f"(BH {size}x{size}, k={k})",
            [
                "fault_rate", "queries", "failed", "skipped", "injected",
                "retries", "transients", "corruptions", "reads_failed",
                "counters_match", "match_rate",
            ],
            fault_rows,
        ),
        format_table(
            "Budgeted (anytime) queries — page budget vs degradation",
            [
                "max_pages", "queries", "degraded_rate", "exact_match_rate",
                "mean_max_error", "mean_logical_reads",
            ],
            budget_rows,
        ),
    ]
    return {
        "tables": tables,
        "rows": {"faults": fault_rows, "budgets": budget_rows},
    }


def chaos(
    quick: bool = False,
    size: int | None = None,
    density: float = 4.0,
    k: int = 5,
    queries: int | None = None,
    workers: int = 4,
    fractions=None,
    seed: int = 13,
) -> dict:
    """Degraded-mode chaos sweep: persistent (kill-list) page faults.

    For each dead-page fraction a fresh engine has that share of its
    DMTM/MSDN pages put on the injector kill-list — every read of
    those pages fails, retries never help — and a concurrent batch
    runs against it.  The degraded-mode contract under measurement:

    * **no crashes** — every query completes or is explicitly skipped
      by admission control, never raises;
    * **availability** — the fraction of queries that returned an
      answer (exact or degraded);
    * **honest degradation** — every non-exact answer carries
      ``degraded=True`` with ``degraded_reason="storage"`` and a
      finite, sound ``max_error``;
    * **bounded retry cost** — the quarantine's fast-fail counter
      shows dead pages being refused without disk retries.
    """
    from repro.core import SurfaceKNNEngine
    from repro.core.batch import BatchQueryExecutor
    from repro.storage.faults import kill_random_pages

    if size is None:
        size = 17 if quick else 33
    if queries is None:
        queries = 16 if quick else 64
    if fractions is None:
        fractions = (0.0, 0.05, 0.10) if quick else (0.0, 0.02, 0.05, 0.10)

    mesh = mesh_for("BH", size)
    reference = SurfaceKNNEngine(mesh, density=density, seed=1)
    qvs = query_vertices(mesh, min(queries, 32), seed=seed)
    specs = [(qvs[i % len(qvs)], k) for i in range(queries)]
    baseline = [reference.query(v, kk) for v, kk in specs]

    rows = []
    for fraction in fractions:
        engine = SurfaceKNNEngine(mesh, density=density, seed=1)
        dead = kill_random_pages(engine.pages, fraction, seed=seed)
        report = BatchQueryExecutor(engine, workers=workers).run(specs)
        summary = report.summary()
        ok = report.ok_results
        degraded = [r for r in ok if r.degraded]
        bad_reason = sum(
            1 for r in degraded if r.degraded_reason != "storage"
        )
        finite_errors = [
            r.max_error for r in degraded if math.isfinite(r.max_error)
        ]
        exact = sum(
            1
            for got, want in zip(report.results, baseline)
            if got is not None
            and not got.degraded
            and got.object_ids == want.object_ids
        )
        q_stats = engine.pages.quarantine.stats()
        rows.append(
            {
                "fraction": fraction,
                "dead_pages": len(dead),
                "queries": len(specs),
                "crashed": summary["failed"],
                "skipped": summary["skipped"],
                "availability": len(ok) / len(specs),
                "degraded_rate": len(degraded) / len(specs),
                "bad_reason": bad_reason,
                "exact_match_rate": exact / len(specs),
                "mean_max_error": (
                    sum(finite_errors) / len(finite_errors)
                    if finite_errors
                    else 0.0
                ),
                "quarantined": q_stats["quarantined"],
                "fast_fails": q_stats["fast_fails_total"],
                "probes": q_stats["probes_total"],
                "health": summary["engine_health"].get("state", "n/a"),
                # The contract in one flag: nothing crashed and every
                # answered query is exact or honestly storage-degraded.
                "answers_ok": summary["failed"] == 0 and bad_reason == 0,
            }
        )

    tables = [
        format_table(
            f"Chaos — persistent dead pages, {queries} queries, "
            f"{workers} workers (BH {size}x{size}, k={k})",
            [
                "fraction", "dead_pages", "queries", "crashed", "skipped",
                "availability", "degraded_rate", "exact_match_rate",
                "mean_max_error", "quarantined", "fast_fails", "probes",
                "health", "answers_ok",
            ],
            rows,
        ),
    ]
    return {"tables": tables, "rows": rows}


# ----------------------------------------------------------------------
# Kernel trajectory — dict reference kernels vs flat CSR kernels
# ----------------------------------------------------------------------

#: Terrain side and page size of the ``msdn build``, ``qem
#: collapse``, ``dmtm attach``, ``mesh adjacency`` and ``exact sweep``
#: micro rows (quick runs too).
BUILD_SIZE = 33
BUILD_PAGE_SIZE = 2048


def kernels(
    quick: bool = False,
    size: int | None = None,
    density: float = 6.0,
    num_anchors: int | None = None,
    num_targets: int | None = None,
    repeats: int = 3,
    out: str | None = None,
) -> dict:
    """Not a paper figure: the search kernels measured against the dict
    reference kernels they replaced.

    Times the three search shapes on the pathnet-level network: the
    multi-source kernel against one reference Dijkstra per (anchor,
    target) pair and against the per-anchor multi-target loop, and a
    full single-source sweep with parents, each as the dict reference
    (the oracle), the heap CSR kernel and the bucketed frontier kernel
    (a single-source sweep as its one-source case); and the heap
    single-target A* against single-target Dijkstra.  A fourth
    comparison, ``msdn dp``, times the MSDN lower-bound DP with
    broadcast hop matrices (the oracle) against the per-coordinate hop
    kernel on the layers of a fixed set of lower-bound calls (see
    :func:`_msdn_dp_calls`), and ``msdn screen`` the dummy-lb screen
    as its definition (the corridor bound's DP against the threshold,
    the oracle), as the screen that masked every row before its
    witness chain
    (:func:`~repro.testkit.reference.msdn_screen_masked_witness`) and
    as the screen that priced its crossing chain with arrays and had
    no spine chain (:func:`~repro.testkit.reference.msdn_screen_arrays`)
    against :meth:`~repro.msdn.msdn.MSDN.corridor_reaches`, on the
    screens a fixed set of queries makes (:func:`_screen_calls`); its
    row reports the ``witness_rate``, the share of screens decided
    without the DP, the ``crossing_rate``, the share decided without
    a mask, and the ``spine_rate``, the share of masked screens the
    spine chain decided.  ``ks polish`` replays the Kanai–Suzuki polishes
    of a fixed set of queries (:func:`_polish_calls`) once per pair
    (:func:`~repro.testkit.reference.kanai_suzuki_distances_reference`)
    and once from one round-0 search per anchor
    (:func:`~repro.geodesic.kanai_suzuki.kanai_suzuki_distances`),
    identical as float bits; its rows' ``searches`` are the Dijkstra
    searches (``geodesic.dijkstra.calls``, round 0 and refinement
    rounds) one replay makes.  A fifth, ``page io``, replays the page
    runs of a fixed set of queries on a storage-attached engine
    (:func:`_page_io_runs`) with a cold buffer per query, once one
    page at a time through the per-page oracle and once as runs
    through :meth:`~repro.storage.pages.PageManager.read_pages`;
    ``region charging`` replays the same queries' region touches
    (:meth:`~repro.msdn.msdn.MSDN.touch_region` and
    :meth:`~repro.multires.dmtm.DMTM.touch_region`) the same way,
    once through the record-id twins
    (:func:`~repro.testkit.reference.msdn_touch_region_reference`,
    and the DMTM with its ``_touch_nodes`` / ``_touch_faces`` seams
    swapped for the record-id twins) and once through production,
    identical in page ids, per-class read counts and LRU order.  Four
    more time structure builds on BH ``BUILD_SIZE``: ``msdn build``,
    the object MSDN build (:class:`~repro.testkit.reference.MSDNReference`)
    against the column-wise one, each including ``attach_storage`` on
    a fresh ``BUILD_PAGE_SIZE`` page manager, identical in arrays and
    pages; ``qem collapse``, the per-pair collapse loop against the
    collapse rounds with one fused merge-cost call per round,
    identical node for node (its production row's ``pricing_calls``
    counts those calls, :func:`_pricing_calls`); ``dmtm attach``, the by-record DMTM attach
    (:func:`~repro.testkit.reference.dmtm_attach_reference`) against
    the array attach on a fresh ``BUILD_PAGE_SIZE`` page manager,
    identical in page arrays, page lengths and classes; and
    ``mesh adjacency``, the adjacency loops
    (:func:`~repro.testkit.reference.mesh_adjacency_reference`)
    against the array passes of a fresh unvalidated mesh, identical
    field for field.  ``exact sweep`` times
    full exact window propagations from fixed sources, the per-window
    reference (:class:`~repro.testkit.reference.ExactGeodesicReference`)
    against the flat event loop, identical in distance bytes and
    window counts (each mesh's tables built before timing).
    ``dmtm cut`` replays
    the refined-corridor upper bounds at cut levels a fixed set of
    queries makes (:func:`_refined_cut_calls`): once building one
    network per region
    (:func:`~repro.testkit.reference.dmtm_cut_per_region`, the
    baseline) and once in place on the compiled cut
    (:meth:`~repro.multires.dmtm.DMTM.extract_network`), identical in
    value bytes, path keys and unreachable results.
    Every comparison first asserts the values are identical — a
    speedup over different answers would be meaningless.  A row's
    ``seconds`` is the best of ``repeats`` rounds, each round running
    every kernel of its comparison once, so a drift in machine speed
    reaches all of them alike.  When
    ``out`` is set, the rows are merged into the ``repro.bench/v1``
    JSON document there (the checked-in ``BENCH_GEODESIC.json``).
    """
    from repro.geodesic.csr import (
        astar_csr,
        dijkstra_csr_with_parents,
        multi_source_heap,
    )
    from repro.geodesic.frontier import multi_source_frontier
    from repro.geodesic.kanai_suzuki import kanai_suzuki_distances
    from repro.geodesic.pathnet import vertex_key
    from repro.msdn.msdn import MSDN
    from repro.msdn.sdn import lower_bound_via_planes_arrays
    from repro.multires.ddm import DistanceDirectMesh
    from repro.multires.dmtm import DMTM
    from repro.obs.context import ObsContext
    from repro.simplification.collapse import build_collapse_history
    from repro.storage.pages import PageManager
    from repro.terrain.mesh import TriangleMesh
    from repro.testkit.reference import (
        ExactGeodesicReference,
        MSDNReference,
        build_collapse_history_reference,
        collapse_history_bits,
        csr_adjacency,
        dijkstra_reference,
        dijkstra_with_parents_reference,
        dmtm_attach_mismatches,
        dmtm_attach_reference,
        dmtm_cut_per_region,
        dmtm_touch_faces_reference,
        dmtm_touch_nodes_reference,
        dmtm_upper_bound_cut_reference,
        kanai_suzuki_distances_reference,
        lower_bound_via_planes_broadcast,
        mesh_adjacency_mismatches,
        mesh_adjacency_reference,
        msdn_build_mismatches,
        msdn_screen_arrays,
        msdn_screen_masked_witness,
        msdn_touch_region_reference,
        read_page_reference,
        upper_bound_bits,
    )

    if size is None:
        size = 25 if quick else 33
    if num_anchors is None:
        num_anchors = 4 if quick else 8
    if num_targets is None:
        num_targets = 8 if quick else 16

    engine = build_engine("BH", size=size, density=density, with_storage=False)
    network = engine.dmtm.extract_network(RESOLUTION_PATHNET, charge_io=False)
    graph = network.graph
    csr = graph.csr
    adjacency = csr_adjacency(csr)

    # Anchors/targets: deterministic mesh vertices present in the
    # pathnet, anchors carrying synthetic additive offsets like the
    # ranking loop's partial path costs.
    candidates = [
        v for v in query_vertices(engine.mesh, (num_anchors + num_targets) * 2, seed=13)
        if vertex_key(v) in graph
    ]
    anchor_vs = candidates[:num_anchors]
    target_vs = candidates[num_anchors : num_anchors + num_targets]
    anchor_ids = [graph.node_id(vertex_key(v)) for v in anchor_vs]
    target_ids = [graph.node_id(vertex_key(v)) for v in target_vs]
    sources = [(nid, 0.37 * (i + 1)) for i, nid in enumerate(anchor_ids)]

    def best_of(*fns):
        """The best time of each of ``fns`` (the kernels of one
        comparison) over ``repeats`` rounds, and each one's last
        value.  Each round runs every kernel once, so a drift in the
        machine's speed reaches every kernel of the comparison alike."""
        best = [float("inf")] * len(fns)
        values = [None] * len(fns)
        for _ in range(repeats):
            for i, fn in enumerate(fns):
                t0 = time.perf_counter()
                values[i] = fn()
                best[i] = min(best[i], time.perf_counter() - t0)
        return best, values

    def ref_per_pair():
        best: dict[int, float] = {}
        for aid, offset in sources:
            for tid in target_ids:
                d = dijkstra_reference(adjacency, aid, targets={tid}).get(tid)
                if d is None:
                    continue
                value = offset + d
                if tid not in best or value < best[tid]:
                    best[tid] = value
        return best

    def ref_per_anchor():
        best: dict[int, float] = {}
        for aid, offset in sources:
            dist = dijkstra_reference(adjacency, aid, targets=set(target_ids))
            for tid in target_ids:
                d = dist.get(tid)
                if d is None:
                    continue
                value = offset + d
                if tid not in best or value < best[tid]:
                    best[tid] = value
        return best

    def csr_multi_source():
        found = multi_source_heap(csr, sources, targets=set(target_ids))
        return {tid: found.value[tid] for tid in target_ids if tid in found.value}

    def frontier_multi_source():
        found = multi_source_frontier(csr, sources, targets=set(target_ids))
        return {tid: found.value[tid] for tid in target_ids if tid in found.value}

    (pair_seconds, anchor_seconds, multi_seconds, frontier_seconds), (
        pair_values,
        anchor_values,
        multi_values,
        frontier_values,
    ) = best_of(ref_per_pair, ref_per_anchor, csr_multi_source, frontier_multi_source)
    if not (pair_values == anchor_values == multi_values == frontier_values):
        raise AssertionError(
            "kernel divergence: multi-source values differ from reference"
        )

    src = anchor_ids[0]

    def frontier_sweep():
        found = multi_source_frontier(csr, [(src, 0.0)])
        return found.value, found.parent

    (sweep_ref_seconds, sweep_csr_seconds, sweep_fro_seconds), (
        sweep_ref,
        sweep_csr,
        sweep_fro,
    ) = best_of(
        lambda: dijkstra_with_parents_reference(adjacency, src),
        lambda: dijkstra_csr_with_parents(csr, src),
        frontier_sweep,
    )
    if not (sweep_ref == sweep_csr == sweep_fro):
        raise AssertionError("kernel divergence: full single-source sweep differs")

    tgt = target_ids[-1]
    (astar_ref_seconds, astar_csr_seconds), (astar_ref, astar_value) = best_of(
        lambda: dijkstra_reference(adjacency, src, targets={tgt}).get(tgt),
        lambda: astar_csr(csr, src, tgt),
    )
    if astar_ref != astar_value:
        raise AssertionError("kernel divergence: A* value differs from Dijkstra")

    dp_calls = _msdn_dp_calls(engine.msdn, engine.mesh, num_anchors)

    def run_dp(dp):
        return [dp(pa, pb, layers) for pa, pb, layers in dp_calls]

    dp_ref = run_dp(lower_bound_via_planes_broadcast)
    dp_new = run_dp(lower_bound_via_planes_arrays)
    # Bounds compared as float bytes, picks exactly.
    if [(np.float64(v).tobytes(), p) for v, p in dp_ref] != [
        (np.float64(v).tobytes(), p) for v, p in dp_new
    ]:
        raise AssertionError("kernel divergence: MSDN DP bound or picks differ")
    (dp_ref_seconds, dp_new_seconds), _ = best_of(
        lambda: run_dp(lower_bound_via_planes_broadcast),
        lambda: run_dp(lower_bound_via_planes_arrays),
    )

    msdn = engine.msdn
    screens = _screen_calls(engine, num_anchors)

    def dp_screens():
        return [
            msdn.lower_bound(
                pa, pb, res, roi=roi, corridor=corridor, charge_io=False
            ).value
            >= threshold
            for pa, pb, res, threshold, roi, corridor in screens
        ]

    def masked_screens():
        return [msdn_screen_masked_witness(msdn, *screen) for screen in screens]

    def array_screens():
        return [
            msdn_screen_arrays(msdn, *screen)[0] >= screen[3] for screen in screens
        ]

    def witness_screens():
        return [msdn.corridor_reaches(*screen) for screen in screens]

    screen_ctx = ObsContext("bench-screen")
    with screen_ctx.activate():
        decisions = witness_screens()
    if not decisions == dp_screens() == masked_screens() == array_screens():
        raise AssertionError("msdn screen divergence: decisions differ from the DP")
    fallbacks = screen_ctx.registry.counter("msdn.screen_dp_fallbacks").value
    masked = screen_ctx.registry.counter("msdn.screen_masked").value
    spined = screen_ctx.registry.counter("msdn.screen_spine").value
    (
        screen_ref_seconds,
        screen_masked_seconds,
        screen_array_seconds,
        screen_new_seconds,
    ), _ = best_of(dp_screens, masked_screens, array_screens, witness_screens)

    polishes = _polish_calls(engine, num_anchors)

    def run_polishes(distances):
        return [
            np.float64(distances(mesh, source, targets, tolerance=tolerance)).tobytes()
            for mesh, source, targets, tolerance in polishes
        ]

    # Each path's Dijkstra searches (round 0 and the refinement
    # rounds), counted on one run: the work the shared round 0 removes.
    polish_values, polish_searches = [], []
    for distances in (kanai_suzuki_distances_reference, kanai_suzuki_distances):
        polish_ctx = ObsContext("bench-polish")
        with polish_ctx.activate():
            polish_values.append(run_polishes(distances))
        polish_searches.append(
            polish_ctx.registry.counter("geodesic.dijkstra.calls").value
        )
    if polish_values[0] != polish_values[1]:
        raise AssertionError("ks polish divergence: shared round 0 differs per pair")
    (polish_ref_seconds, polish_new_seconds), _ = best_of(
        lambda: run_polishes(kanai_suzuki_distances_reference),
        lambda: run_polishes(kanai_suzuki_distances),
    )
    polish_pairs = sum(len(targets) for _m, _s, targets, _t in polishes)

    dmtm = engine.dmtm
    cut_calls = _refined_cut_calls(engine, num_anchors)

    def cut_bounds(extract, bound):
        out = []
        for resolution, region, pairs in cut_calls:
            network = extract(resolution, region)
            out.extend(bound(a, b, resolution, network) for a, b in pairs)
        return out

    def per_region_cuts():
        return cut_bounds(
            lambda res, region: dmtm_cut_per_region(dmtm, res, region, charge_io=False),
            lambda a, b, _res, net: dmtm_upper_bound_cut_reference(dmtm, a, b, net),
        )

    def in_place_cuts():
        return cut_bounds(
            lambda res, region: dmtm.extract_network(res, region, charge_io=False),
            lambda a, b, res, net: dmtm.upper_bound(a, b, res, network=net),
        )

    if [upper_bound_bits(r) for r in per_region_cuts()] != [
        upper_bound_bits(r) for r in in_place_cuts()
    ]:
        raise AssertionError(
            "dmtm cut divergence: in-place bounds differ from per-region builds"
        )
    (cut_ref_seconds, cut_new_seconds), _ = best_of(per_region_cuts, in_place_cuts)
    cut_bound_count = sum(len(pairs) for _res, _region, pairs in cut_calls)

    io_size = 17 if quick else 25
    io_engine = build_engine("BH", size=io_size, density=10.0)
    pages = io_engine.pages
    io_runs, io_touches, io_bill = _page_io_runs(io_engine, 8 if quick else 16)

    def replay(read_run):
        """Every query's runs from a cold buffer: per-class read counts
        and the buffer's final LRU order."""
        before = pages.stats.snapshot()
        for runs in io_runs:
            pages.drop_buffer()
            for run in runs:
                read_run(run)
        delta = pages.stats.delta_since(before)
        return (
            (delta.logical_by_class, delta.physical_by_class),
            list(pages.buffer._entries),
        )

    def per_page(run):
        for page_id in run:
            read_page_reference(pages, page_id)

    io_ref = replay(per_page)
    io_new = replay(pages.read_pages)
    (_logical, physical), _lru = io_new
    if io_ref != io_new or sum(physical.values()) != io_bill:
        raise AssertionError(
            "page io divergence: runs and single reads differ in pages, "
            "order or per-class counts, or miss the queries' page bill"
        )
    (io_ref_seconds, io_new_seconds), _ = best_of(
        lambda: replay(per_page), lambda: replay(pages.read_pages)
    )
    io_pages = sum(len(run) for runs in io_runs for run in runs)

    io_msdn, io_dmtm = io_engine.msdn, io_engine.dmtm

    def replay_touches(touch_msdn, log=None):
        """Every query's region touches from a cold buffer, each page
        id read appended to ``log``: per-class read counts and the
        buffer's final LRU order."""
        if log is not None:
            read_pages = pages.read_pages

            def logged(page_ids):
                log.extend(page_ids)
                return read_pages(page_ids)

            pages.read_pages = logged
        before = pages.stats.snapshot()
        try:
            for touches in io_touches:
                pages.drop_buffer()
                for kind, resolution, roi, axes in touches:
                    if kind == "msdn":
                        touch_msdn(resolution, roi, axes=axes)
                    else:
                        io_dmtm.touch_region(resolution, roi)
        finally:
            if log is not None:
                del pages.read_pages
        delta = pages.stats.delta_since(before)
        return (
            (delta.logical_by_class, delta.physical_by_class),
            list(pages.buffer._entries),
        )

    def record_id_touches(log=None):
        io_dmtm._touch_nodes = partial(dmtm_touch_nodes_reference, io_dmtm)
        io_dmtm._touch_faces = partial(dmtm_touch_faces_reference, io_dmtm)
        try:
            return replay_touches(partial(msdn_touch_region_reference, io_msdn), log)
        finally:
            del io_dmtm._touch_nodes, io_dmtm._touch_faces

    def segment_touches(log=None):
        return replay_touches(io_msdn.touch_region, log)

    touch_ref_log: list[int] = []
    touch_new_log: list[int] = []
    touch_ref = record_id_touches(touch_ref_log)
    touch_new = segment_touches(touch_new_log)
    if touch_ref != touch_new or touch_ref_log != touch_new_log or not touch_new_log:
        raise AssertionError(
            "region charging divergence: segment and record-id touches "
            "differ in page ids, order, per-class counts or LRU order"
        )
    (touch_ref_seconds, touch_new_seconds), _ = best_of(
        record_id_touches, segment_touches
    )
    touch_count = sum(len(touches) for touches in io_touches)

    build_mesh = mesh_for("BH", BUILD_SIZE)

    def msdn_object_build():
        ref = MSDNReference.build(build_mesh)
        ref_pages = PageManager(page_size=BUILD_PAGE_SIZE)
        ref.attach_storage(ref_pages)
        return ref, ref_pages

    def msdn_array_build():
        msdn = MSDN(build_mesh)
        msdn_pages = PageManager(page_size=BUILD_PAGE_SIZE)
        msdn.attach_storage(msdn_pages)
        return msdn, msdn_pages

    mismatches = msdn_build_mismatches(*msdn_array_build(), *msdn_object_build())
    if mismatches:
        raise AssertionError(f"msdn build divergence: {mismatches[:5]}")
    (msdn_ref_seconds, msdn_new_seconds), ((ref_msdn, _), _) = best_of(
        msdn_object_build, msdn_array_build
    )
    msdn_chunks = sum(len(family) for family in ref_msdn.family_xy.values())

    history, pricing_calls = _pricing_calls(build_mesh)
    if collapse_history_bits(history) != collapse_history_bits(
        build_collapse_history_reference(build_mesh)
    ):
        raise AssertionError("qem collapse divergence: histories differ")
    (qem_ref_seconds, qem_new_seconds), _ = best_of(
        lambda: build_collapse_history_reference(build_mesh),
        lambda: build_collapse_history(build_mesh),
    )

    build_dmtm = DMTM(build_mesh, ddm=DistanceDirectMesh(build_mesh, history))

    def array_attach():
        attach_pages = PageManager(page_size=BUILD_PAGE_SIZE)
        build_dmtm.attach_storage(attach_pages)
        return attach_pages

    def record_attach():
        return dmtm_attach_reference(
            build_dmtm, PageManager(page_size=BUILD_PAGE_SIZE)
        )

    mismatches = dmtm_attach_mismatches(
        build_dmtm, array_attach(), PageManager(page_size=BUILD_PAGE_SIZE)
    )
    if mismatches:
        raise AssertionError(f"dmtm attach divergence: {mismatches[:5]}")
    (attach_ref_seconds, attach_new_seconds), _ = best_of(record_attach, array_attach)
    attach_records = len(history.nodes) + build_mesh.num_faces

    def array_adjacency():
        return TriangleMesh(build_mesh.vertices, build_mesh.faces, validate=False)

    mismatches = mesh_adjacency_mismatches(array_adjacency())
    if mismatches:
        raise AssertionError(f"mesh adjacency divergence: {mismatches}")
    (adjacency_ref_seconds, adjacency_new_seconds), _ = best_of(
        lambda: mesh_adjacency_reference(build_mesh), array_adjacency
    )

    sweep_sources = query_vertices(build_mesh, 2 if quick else 4, seed=37)

    def exact_sweeps(kernel):
        out = []
        for source in sweep_sources:
            geo = kernel(build_mesh, source)
            out.append((geo.distances().tobytes(), geo.windows_created))
        return out

    sweeps = exact_sweeps(ExactGeodesic)
    if sweeps != exact_sweeps(ExactGeodesicReference):
        raise AssertionError(
            "exact sweep divergence: distances or window counts differ"
        )
    (exact_ref_seconds, exact_new_seconds), _ = best_of(
        lambda: exact_sweeps(ExactGeodesicReference),
        lambda: exact_sweeps(ExactGeodesic),
    )

    searches = len(sources) * len(target_ids)
    kernel_rows = [
        {
            "comparison": "multi-source",
            "kernel": "reference per-pair",
            "searches": searches,
            "seconds": pair_seconds,
            "speedup": 1.0,
            "identical": True,
        },
        {
            "comparison": "multi-source",
            "kernel": "reference per-anchor",
            "searches": len(sources),
            "seconds": anchor_seconds,
            "speedup": pair_seconds / anchor_seconds if anchor_seconds > 0 else None,
            "identical": True,
        },
        {
            "comparison": "multi-source",
            "kernel": "csr multi-source",
            "searches": 1,
            "seconds": multi_seconds,
            "speedup": pair_seconds / multi_seconds if multi_seconds > 0 else None,
            "identical": True,
        },
        {
            "comparison": "multi-source",
            "kernel": "frontier multi-source",
            "searches": 1,
            "seconds": frontier_seconds,
            "speedup": (
                pair_seconds / frontier_seconds if frontier_seconds > 0 else None
            ),
            "identical": True,
        },
        {
            "comparison": "full sweep",
            "kernel": "reference dijkstra",
            "searches": 1,
            "seconds": sweep_ref_seconds,
            "speedup": 1.0,
            "identical": True,
        },
        {
            "comparison": "full sweep",
            "kernel": "csr dijkstra",
            "searches": 1,
            "seconds": sweep_csr_seconds,
            "speedup": (
                sweep_ref_seconds / sweep_csr_seconds
                if sweep_csr_seconds > 0
                else None
            ),
            "identical": True,
        },
        {
            "comparison": "full sweep",
            "kernel": "frontier dijkstra",
            "searches": 1,
            "seconds": sweep_fro_seconds,
            "speedup": (
                sweep_ref_seconds / sweep_fro_seconds
                if sweep_fro_seconds > 0
                else None
            ),
            "identical": True,
        },
        {
            "comparison": "single target",
            "kernel": "reference dijkstra",
            "searches": 1,
            "seconds": astar_ref_seconds,
            "speedup": 1.0,
            "identical": True,
        },
        {
            "comparison": "single target",
            "kernel": "csr astar",
            "searches": 1,
            "seconds": astar_csr_seconds,
            "speedup": (
                astar_ref_seconds / astar_csr_seconds
                if astar_csr_seconds > 0
                else None
            ),
            "identical": True,
        },
        {
            "comparison": "msdn dp",
            "kernel": "reference broadcast",
            "searches": len(dp_calls),
            "seconds": dp_ref_seconds,
            "speedup": 1.0,
            "identical": True,
        },
        {
            "comparison": "msdn dp",
            "kernel": "per-coordinate",
            "searches": len(dp_calls),
            "seconds": dp_new_seconds,
            "speedup": dp_ref_seconds / dp_new_seconds if dp_new_seconds > 0 else None,
            "identical": True,
        },
        {
            "comparison": "msdn screen",
            "kernel": "reference dp",
            "searches": len(screens),
            "seconds": screen_ref_seconds,
            "speedup": 1.0,
            "identical": True,
        },
        {
            "comparison": "msdn screen",
            "kernel": "masked witness",
            "searches": len(screens),
            "seconds": screen_masked_seconds,
            "speedup": (
                screen_ref_seconds / screen_masked_seconds
                if screen_masked_seconds > 0
                else None
            ),
            "identical": True,
        },
        {
            "comparison": "msdn screen",
            "kernel": "array witness",
            "searches": len(screens),
            "seconds": screen_array_seconds,
            "speedup": (
                screen_ref_seconds / screen_array_seconds
                if screen_array_seconds > 0
                else None
            ),
            "identical": True,
        },
        {
            "comparison": "msdn screen",
            "kernel": "witness chain",
            "searches": len(screens),
            "seconds": screen_new_seconds,
            "speedup": (
                screen_ref_seconds / screen_new_seconds
                if screen_new_seconds > 0
                else None
            ),
            "identical": True,
            "witness_rate": 1.0 - fallbacks / len(screens) if screens else None,
            "crossing_rate": 1.0 - masked / len(screens) if screens else None,
            "spine_rate": spined / masked if masked else None,
        },
        {
            "comparison": "ks polish",
            "kernel": "per-pair",
            "searches": polish_searches[0],
            "seconds": polish_ref_seconds,
            "speedup": 1.0,
            "identical": True,
        },
        {
            "comparison": "ks polish",
            "kernel": "shared round 0",
            "searches": polish_searches[1],
            "seconds": polish_new_seconds,
            "speedup": (
                polish_ref_seconds / polish_new_seconds
                if polish_new_seconds > 0
                else None
            ),
            "identical": True,
        },
        {
            "comparison": "dmtm cut",
            "kernel": "per-region build",
            "searches": cut_bound_count,
            "seconds": cut_ref_seconds,
            "speedup": 1.0,
            "identical": True,
        },
        {
            "comparison": "dmtm cut",
            "kernel": "in place",
            "searches": cut_bound_count,
            "seconds": cut_new_seconds,
            "speedup": (
                cut_ref_seconds / cut_new_seconds if cut_new_seconds > 0 else None
            ),
            "identical": True,
        },
        {
            "comparison": "page io",
            "kernel": "reference per-page",
            "searches": io_pages,
            "seconds": io_ref_seconds,
            "speedup": 1.0,
            "identical": True,
        },
        {
            "comparison": "page io",
            "kernel": "run read",
            "searches": sum(len(runs) for runs in io_runs),
            "seconds": io_new_seconds,
            "speedup": io_ref_seconds / io_new_seconds if io_new_seconds > 0 else None,
            "identical": True,
        },
        {
            "comparison": "region charging",
            "kernel": "record-id twins",
            "searches": touch_count,
            "seconds": touch_ref_seconds,
            "speedup": 1.0,
            "identical": True,
        },
        {
            "comparison": "region charging",
            "kernel": "page segments",
            "searches": touch_count,
            "seconds": touch_new_seconds,
            "speedup": (
                touch_ref_seconds / touch_new_seconds if touch_new_seconds > 0 else None
            ),
            "identical": True,
        },
        {
            "comparison": "msdn build",
            "kernel": "reference objects",
            "searches": msdn_chunks,
            "seconds": msdn_ref_seconds,
            "speedup": 1.0,
            "identical": True,
        },
        {
            "comparison": "msdn build",
            "kernel": "column-wise",
            "searches": msdn_chunks,
            "seconds": msdn_new_seconds,
            "speedup": (
                msdn_ref_seconds / msdn_new_seconds if msdn_new_seconds > 0 else None
            ),
            "identical": True,
        },
        {
            "comparison": "qem collapse",
            "kernel": "reference per-pair",
            "searches": history.num_steps,
            "seconds": qem_ref_seconds,
            "speedup": 1.0,
            "identical": True,
        },
        {
            "comparison": "qem collapse",
            "kernel": "fused merge costs",
            "searches": history.num_steps,
            "seconds": qem_new_seconds,
            "speedup": (
                qem_ref_seconds / qem_new_seconds if qem_new_seconds > 0 else None
            ),
            "identical": True,
            "pricing_calls": pricing_calls,
        },
        {
            "comparison": "dmtm attach",
            "kernel": "reference by-record",
            "searches": attach_records,
            "seconds": attach_ref_seconds,
            "speedup": 1.0,
            "identical": True,
        },
        {
            "comparison": "dmtm attach",
            "kernel": "array",
            "searches": attach_records,
            "seconds": attach_new_seconds,
            "speedup": (
                attach_ref_seconds / attach_new_seconds
                if attach_new_seconds > 0
                else None
            ),
            "identical": True,
        },
        {
            "comparison": "mesh adjacency",
            "kernel": "reference loops",
            "searches": build_mesh.num_faces,
            "seconds": adjacency_ref_seconds,
            "speedup": 1.0,
            "identical": True,
        },
        {
            "comparison": "mesh adjacency",
            "kernel": "array",
            "searches": build_mesh.num_faces,
            "seconds": adjacency_new_seconds,
            "speedup": (
                adjacency_ref_seconds / adjacency_new_seconds
                if adjacency_new_seconds > 0
                else None
            ),
            "identical": True,
        },
        {
            "comparison": "exact sweep",
            "kernel": "reference windows",
            "searches": len(sweep_sources),
            "seconds": exact_ref_seconds,
            "speedup": 1.0,
            "identical": True,
            "windows": sum(windows for _bytes, windows in sweeps),
        },
        {
            "comparison": "exact sweep",
            "kernel": "flat loop",
            "searches": len(sweep_sources),
            "seconds": exact_new_seconds,
            "speedup": (
                exact_ref_seconds / exact_new_seconds if exact_new_seconds > 0 else None
            ),
            "identical": True,
            "windows": sum(windows for _bytes, windows in sweeps),
        },
    ]

    tables = [
        format_table(
            f"Kernels (micro) — pathnet network, BH {size}x{size}, "
            f"{len(sources)} anchors x {len(target_ids)} targets",
            [
                "comparison",
                "kernel",
                "searches",
                "seconds",
                "speedup",
                "identical",
                "witness_rate",
                "crossing_rate",
                "spine_rate",
                "windows",
                "pricing_calls",
            ],
            kernel_rows,
        ),
    ]
    rows = {"kernels": kernel_rows}
    if out:
        document = _load_bench_document(out)
        document["figure"] = "kernels"
        document["generated_by"] = "python -m repro.bench kernels"
        document["params"].update(
            {
                "dataset": "BH",
                "micro_size": size,
                "density": density,
                "num_anchors": len(sources),
                "num_targets": len(target_ids),
                "msdn_dp_calls": len(dp_calls),
                "msdn_screens": len(screens),
                "ks_polishes": len(polishes),
                "ks_polish_pairs": polish_pairs,
                "dmtm_cut_regions": len(cut_calls),
                "dmtm_cut_bounds": cut_bound_count,
                "page_io_size": io_size,
                "page_io_queries": len(io_runs),
                "page_io_pages": io_pages,
                "region_touches": touch_count,
                "region_touch_pages": len(touch_new_log),
                "build_size": BUILD_SIZE,
                "build_page_size": BUILD_PAGE_SIZE,
                "exact_sweep_sources": len(sweep_sources),
                "repeats": repeats,
                "quick": quick,
            }
        )
        document["rows"].update(rows)
        _write_bench_document(out, document)
    return {"tables": tables, "rows": rows}


def _msdn_dp_calls(msdn, mesh, num_pairs: int) -> list[tuple]:
    """DP inputs ``(pa, pb, layer_boxes)`` of a fixed set of MSDN
    lower-bound calls shaped like the ranking loop's.

    For each of ``num_pairs`` deterministic vertex pairs and each
    resolution, coarse to fine: the bound over an ROI box (the pair's
    bounding box grown by a quarter of their distance, standing in for
    the ellipse of an upper bound 1.5 times the straight line), and
    the dummy-lb screen — the same ROI plus the corridor
    :meth:`~repro.msdn.msdn.MSDN.corridor_from_path` builds around the
    previous level's bound path.  The layers are the ones
    :meth:`~repro.msdn.msdn.MSDN.lower_bound` would hand its DP
    (:func:`repro.testkit.reference.msdn_layers_reference`).
    """
    from repro.geometry.primitives import BoundingBox
    from repro.testkit.reference import _layer_boxes, msdn_layers_reference

    calls = []
    for a, b in vertex_pairs(mesh, num_pairs, seed=17):
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        margin = 0.25 * float(np.linalg.norm(pa - pb))
        roi = BoundingBox.of_points(np.array([pa[:2], pb[:2]])).expanded(margin)
        path = None
        for res in msdn.resolutions:
            corridors = [None]
            if path is not None:
                corridors.append(
                    msdn.corridor_from_path(path.path_keys, path.resolution)
                )
            for corridor in corridors:
                qa, qb, _res, layers = msdn_layers_reference(
                    msdn, pa, pb, res, roi=roi, corridor=corridor
                )
                calls.append((qa, qb, [_layer_boxes(layer) for layer in layers]))
            path = msdn.lower_bound(pa, pb, res, roi=roi, charge_io=False)
    return calls


def _screen_calls(engine, num_queries: int) -> list[tuple]:
    """The dummy-lb screens a fixed set of k=5 queries makes, as
    ``(pa, pb, resolution, threshold, roi, corridor)`` argument tuples
    of :meth:`~repro.msdn.msdn.MSDN.corridor_interval` (the method the
    ranking loop calls; :meth:`~repro.msdn.msdn.MSDN.corridor_reaches`
    takes the same), captured by wrapping it on the engine's MSDN.
    The queries run without a bound cache, so every screen runs."""
    msdn = engine.msdn
    captured: list[tuple] = []
    screen = msdn.corridor_interval

    def logged(pa, pb, resolution, threshold, roi=None, corridor=None):
        captured.append((pa, pb, resolution, threshold, roi, corridor))
        return screen(pa, pb, resolution, threshold, roi=roi, corridor=corridor)

    msdn.corridor_interval = logged
    try:
        for vertex in query_vertices(engine.mesh, num_queries, seed=29):
            engine.query(vertex, 5)
    finally:
        del msdn.corridor_interval
    return captured


def _pricing_calls(mesh) -> tuple:
    """The collapse history of ``mesh`` and the number of
    :func:`~repro.simplification.quadric.merge_costs` calls its build
    made, counted by wrapping the function where the collapse loop
    looks it up."""
    from repro.simplification import collapse

    calls = 0
    price = collapse.merge_costs

    def counted(q, pos_a, pos_b):
        nonlocal calls
        calls += 1
        return price(q, pos_a, pos_b)

    collapse.merge_costs = counted
    try:
        history = collapse.build_collapse_history(mesh)
    finally:
        collapse.merge_costs = price
    return history, calls


def _polish_calls(engine, num_queries: int) -> list[tuple]:
    """The Kanai–Suzuki polishes a fixed set of k=5 queries makes, one
    per anchor, as ``(mesh, source, targets, tolerance)`` argument
    tuples of
    :func:`~repro.geodesic.kanai_suzuki.kanai_suzuki_distances`,
    captured by wrapping it where the ranking loop looks it up."""
    from repro.geodesic import kanai_suzuki

    captured: list[tuple] = []
    polish = kanai_suzuki.kanai_suzuki_distances

    def logged(mesh, source, targets, tolerance=0.03, **kwargs):
        captured.append((mesh, source, list(targets), tolerance))
        return polish(mesh, source, targets, tolerance=tolerance, **kwargs)

    kanai_suzuki.kanai_suzuki_distances = logged
    try:
        for vertex in query_vertices(engine.mesh, num_queries, seed=37):
            engine.query(vertex, 5)
    finally:
        kanai_suzuki.kanai_suzuki_distances = polish
    return captured


def _refined_cut_calls(engine, num_queries: int) -> list[tuple]:
    """The refined-corridor upper bounds at cut levels a fixed set of
    k=5 queries makes, as ``(resolution, region, pairs)``: the
    corridor boxes of one extraction and the ``(anchor, candidate)``
    vertex pairs bounded on it, captured by wrapping
    ``extract_network`` and ``upper_bound`` on the engine's DMTM.  A
    refined corridor is the one extraction the ranking loop passes a
    list of boxes."""
    dmtm = engine.dmtm
    extract = dmtm.extract_network
    upper_bound = dmtm.upper_bound
    captured: list[tuple] = []
    # id(network) -> (network, its pairs); holding the network keeps
    # its id from being reused.
    corridors: dict[int, tuple] = {}

    def logged_extract(resolution, roi=None, charge_io=True):
        network = extract(resolution, roi, charge_io)
        if resolution <= 1.0 and isinstance(roi, list):
            call = (resolution, list(roi), [])
            captured.append(call)
            corridors[id(network)] = (network, call[2])
        return network

    def logged_upper_bound(vertex_a, vertex_b, resolution, roi=None, network=None):
        held = corridors.get(id(network))
        if held is not None:
            held[1].append((vertex_a, vertex_b))
        return upper_bound(vertex_a, vertex_b, resolution, roi=roi, network=network)

    dmtm.extract_network = logged_extract
    dmtm.upper_bound = logged_upper_bound
    try:
        for vertex in query_vertices(engine.mesh, num_queries, seed=31):
            engine.query(vertex, 5)
    finally:
        del dmtm.extract_network
        del dmtm.upper_bound
    return [call for call in captured if call[2]]


def _page_io_runs(engine, num_queries: int) -> tuple[list, list, int]:
    """The page runs a fixed set of k=3 queries reads, per query; the
    region touches they make, per query, as ``(kind, resolution, roi,
    axes)`` with kind ``"msdn"`` for
    :meth:`~repro.msdn.msdn.MSDN.touch_region` and ``"dmtm"`` (axes
    None) for :meth:`~repro.multires.dmtm.DMTM.touch_region`; and the
    pages those queries were billed (cold cache each)."""
    pages, msdn, dmtm = engine.pages, engine.msdn, engine.dmtm
    runs: list[list[list[int]]] = []
    touches: list[list[tuple]] = []
    read_pages = pages.read_pages
    msdn_touch, dmtm_touch = msdn.touch_region, dmtm.touch_region

    def logged(page_ids):
        runs[-1].append(list(page_ids))
        return read_pages(page_ids)

    def logged_msdn(resolution, roi=None, axes=(0, 1)):
        touches[-1].append(("msdn", resolution, roi, axes))
        return msdn_touch(resolution, roi, axes=axes)

    def logged_dmtm(resolution, roi=None):
        touches[-1].append(("dmtm", resolution, roi, None))
        return dmtm_touch(resolution, roi)

    bill = 0
    pages.read_pages = logged
    msdn.touch_region, dmtm.touch_region = logged_msdn, logged_dmtm
    try:
        for vertex in query_vertices(engine.mesh, num_queries, seed=23):
            runs.append([])
            touches.append([])
            bill += engine.query(vertex, 3).metrics.pages_accessed
    finally:
        del pages.read_pages, msdn.touch_region, dmtm.touch_region
    return runs, touches, bill


# ----------------------------------------------------------------------
# Landmark (ALT) lower bounds — pruned vs baseline ranking
# ----------------------------------------------------------------------


def _load_bench_document(path: str) -> dict:
    """Existing ``repro.bench/v1`` document at ``path``, or a fresh
    skeleton — drivers merge their own series into ``rows`` so the
    kernels and landmarks sweeps can share one checked-in file."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        document = {}
    document.setdefault("schema", "repro.bench/v1")
    document.setdefault("figure", "kernels")
    document.setdefault("generated_by", "python -m repro.bench")
    document.setdefault("params", {})
    document.setdefault("rows", {})
    return document


def _write_bench_document(path: str, document: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def landmarks(
    quick: bool = False,
    size: int | None = None,
    density: float = 4.0,
    ks=None,
    queries_per_k: int | None = None,
    count: int = 8,
    out: str | None = None,
) -> dict:
    """Not a paper figure: ALT-style landmark lower bounds
    (:mod:`repro.geodesic.landmarks`) measured on the fig10 k-sweep
    workload — the same queries run landmarks-off and landmarks-on.

    The neighbour sets and degraded flags are *asserted* identical
    (the landmark contract); intervals may only tighten and pruned
    runs may touch fewer pages, so those identities are reported as
    booleans rather than pinned.  CPU time is best of two passes on
    fresh engines sharing one prebuilt index; the one-off index build
    (selection plus one exact row per landmark) is reported
    separately (``build_seconds``) and charged to the landmark side
    in ``amortized_speedup``.  When ``out`` is set the series
    is merged into the ``repro.bench/v1`` document (the checked-in
    ``BENCH_GEODESIC.json``), preserving the kernels rows.
    """
    from repro.core.engine import SurfaceKNNEngine
    from repro.geodesic.landmarks import LandmarkIndex
    from repro.obs.context import ObsContext

    if size is None:
        size = 33 if quick else 49
    if ks is None:
        ks = (3, 9, 15) if quick else (3, 6, 9, 12, 15, 18, 21, 24, 27, 30)
    if queries_per_k is None:
        queries_per_k = 1 if quick else 2

    mesh = mesh_for("BH", size)
    qvs = query_vertices(mesh, queries_per_k, seed=9)
    workload = [(qv, k) for k in ks for qv in qvs]

    t0 = time.process_time()
    index = LandmarkIndex.build(mesh, count=count, seed=0)
    build_seconds = time.process_time() - t0

    def run_mode(lm) -> tuple[list, float, dict]:
        best = float("inf")
        answers: list = []
        counters: dict = {}
        for _ in range(2):
            ctx = ObsContext("bench-landmarks")
            eng = SurfaceKNNEngine(
                mesh, density=density, seed=3, landmarks=lm, obs=ctx
            )
            t0 = time.process_time()
            fingerprints = []
            for qv, k in workload:
                result = eng.query(qv, k, step_length=2)
                fingerprints.append(
                    (
                        tuple(result.object_ids),
                        result.degraded,
                        tuple(result.intervals),
                        result.metrics.logical_reads,
                    )
                )
            best = min(best, time.process_time() - t0)
            answers = fingerprints
            snapshot = ctx.registry.collect()
            counters = {
                name: snapshot.get(name, {}).get("value", 0)
                for name in ("landmark.hits", "landmark.prunes")
            }
        return answers, best, counters

    off_answers, off_wall, _off = run_mode(None)
    on_answers, on_wall, counters = run_mode(index)
    if any(
        sorted(a[0]) != sorted(b[0]) or a[1] != b[1]
        for a, b in zip(off_answers, on_answers)
    ):
        raise AssertionError(
            "landmark divergence: neighbour sets or degraded flags "
            "differ from the landmarks-off run"
        )
    # Ordering of tied neighbours may legitimately swap when pruning
    # shifts polish targets; report it rather than gate on it.
    identical_order = all(
        a[0] == b[0] for a, b in zip(off_answers, on_answers)
    )
    identical_intervals = all(
        a[2] == b[2] for a, b in zip(off_answers, on_answers)
    )
    identical_reads = all(
        a[3] == b[3] for a, b in zip(off_answers, on_answers)
    )
    rows = [
        {
            "mode": "landmarks-off",
            "queries": len(workload),
            "cpu_seconds": off_wall,
            "speedup_vs_off": 1.0,
            "amortized_speedup": 1.0,
            "identical_results": True,
            "identical_order": True,
            "identical_intervals": True,
            "identical_logical_reads": True,
            "landmark_hits": 0,
            "landmark_prunes": 0,
            "build_seconds": 0.0,
        },
        {
            "mode": f"landmarks-{count}",
            "queries": len(workload),
            "cpu_seconds": on_wall,
            "speedup_vs_off": off_wall / on_wall if on_wall > 0 else None,
            # End-to-end ratio with the one-off table build charged to
            # the landmark side: what a cold process actually pays.
            "amortized_speedup": (
                off_wall / (on_wall + build_seconds)
                if on_wall + build_seconds > 0
                else None
            ),
            "identical_results": True,
            "identical_order": identical_order,
            "identical_intervals": identical_intervals,
            "identical_logical_reads": identical_reads,
            "landmark_hits": counters.get("landmark.hits", 0),
            "landmark_prunes": counters.get("landmark.prunes", 0),
            "build_seconds": build_seconds,
        },
    ]
    table = format_table(
        f"Landmark bounds — fig10 k-sweep, BH {size}x{size} "
        f"(o={density:g}, s=2, L={count})",
        [
            "mode", "queries", "cpu_seconds", "speedup_vs_off",
            "amortized_speedup",
            "identical_results", "identical_order", "identical_intervals",
            "identical_logical_reads", "landmark_hits", "landmark_prunes",
            "build_seconds",
        ],
        rows,
    )
    if out:
        document = _load_bench_document(out)
        document["params"]["landmarks"] = {
            "dataset": "BH",
            "size": size,
            "density": density,
            "ks": list(ks),
            "queries_per_k": queries_per_k,
            "count": count,
            "quick": quick,
        }
        document["rows"]["landmarks"] = rows
        _write_bench_document(out, document)
    return {"tables": [table], "rows": {"landmarks": rows}}


# ----------------------------------------------------------------------
# Tiled terrain sharding — identity, scale
# ----------------------------------------------------------------------


def shard(
    quick: bool = False,
    identity_size: int | None = None,
    scale_size: int | None = None,
    out: str | None = None,
) -> dict:
    """Not a paper figure: the tiled-sharding extension
    (:mod:`repro.shard`) measured two ways.

    Table 1 (identity) answers a spread of queries — including probes
    on the tile-cut cross, the ones sub-window certification finds
    hardest — through sharded engines of several grids on a DEM the
    monolithic engine also builds.  Neighbour sets and
    degraded/budget flags are *asserted* identical per query (the
    sharding contract); wall clock is cold end-to-end (engine build +
    queries) because lazy window builds are the whole point of the
    sharded path.

    Table 2 (scale) builds a DEM the monolithic engine is never asked
    to mesh — 257x257 with 1e4 objects in full mode — and answers
    tile-interior queries entirely through the sharded path,
    reporting setup cost, per-query latency and how few windows the
    router needed.  When ``out`` is set both series merge into
    the ``repro.bench/v1`` document (the checked-in
    ``BENCH_GEODESIC.json``), preserving the kernels and landmarks
    rows.
    """
    from repro.core.engine import SurfaceKNNEngine
    from repro.core.objects import ObjectSet
    from repro.shard import ShardedEngine, uniform_grid_objects
    from repro.terrain.mesh import TriangleMesh
    from repro.terrain.synthetic import fractal_dem

    if identity_size is None:
        identity_size = 17 if quick else 33
    if scale_size is None:
        scale_size = 129 if quick else 257

    # ---- Table 1: answer identity vs the monolithic engine ----------
    dem = fractal_dem(identity_size, 90.0, 500.0, 0.65, seed=7)
    vids = [int(v) for v in uniform_grid_objects(dem, 40, seed=2)]
    mid = dem.rows // 2
    probes = [
        (2, 2), (2, dem.cols - 3), (dem.rows - 3, 2),
        (dem.rows - 3, dem.cols - 3), (mid, mid), (mid, 2), (2, mid),
    ]
    queries = [r * dem.cols + c for r, c in probes]
    k = 3

    t0 = time.perf_counter()
    mesh = TriangleMesh.from_dem(dem)
    mono = SurfaceKNNEngine(mesh, objects=ObjectSet(mesh, vids))
    base = [mono.query(qv, k) for qv in queries]
    mono_wall = time.perf_counter() - t0
    identity_rows = [
        {
            "engine": "monolithic",
            "queries": len(queries),
            "wall_seconds": mono_wall,
            "speedup_vs_monolithic": 1.0,
            "identical_results": True,
            "identical_flags": True,
            "windows_built": 1,
        }
    ]
    grids = ((1, 1), (2, 2)) if quick else ((1, 1), (2, 2), (3, 3))
    for tiles in grids:
        t0 = time.perf_counter()
        eng = ShardedEngine(dem, objects=vids, grid=tiles)
        answers = [eng.query(qv, k) for qv in queries]
        wall = time.perf_counter() - t0
        same_sets = all(
            sorted(a.object_ids) == sorted(b.object_ids)
            for a, b in zip(base, answers)
        )
        same_flags = all(
            (a.degraded, a.degraded_reason, a.budget_reason, a.converged)
            == (b.degraded, b.degraded_reason, b.budget_reason, b.converged)
            for a, b in zip(base, answers)
        )
        if not (same_sets and same_flags):
            raise AssertionError(
                f"shard divergence: grid {tiles} disagrees with the "
                "monolithic engine"
            )
        identity_rows.append(
            {
                "engine": f"sharded-{tiles[0]}x{tiles[1]}",
                "queries": len(queries),
                "wall_seconds": wall,
                "speedup_vs_monolithic": mono_wall / wall if wall > 0 else None,
                "identical_results": same_sets,
                "identical_flags": same_flags,
                "windows_built": len(eng.windows_built),
            }
        )

    # ---- Table 2: sharded-only scale ---------------------------------
    tiles3 = (4, 4) if quick else (8, 8)
    n_objects = 2_500 if quick else 10_000
    # Quick mode keeps the relief gentler: at 129x129 the full-mode
    # amplitude makes dE3d so loose that every probe escalates to a
    # near-full window, which is a stress test, not a CI smoke test.
    amplitude = 700.0 if quick else 2200.0
    dem3 = fractal_dem(scale_size, 90.0, amplitude, 0.7, seed=11)
    vids3 = [int(v) for v in uniform_grid_objects(dem3, n_objects, seed=3)]
    t0 = time.perf_counter()
    eng3 = ShardedEngine(dem3, objects=vids3, grid=tiles3)
    setup_wall = time.perf_counter() - t0
    picks = sorted({1, tiles3[0] // 2, tiles3[0] - 2})
    queries3 = []
    for ti in picks:
        r = (eng3.grid.row_cuts[ti] + eng3.grid.row_cuts[ti + 1]) // 2
        c = (eng3.grid.col_cuts[ti] + eng3.grid.col_cuts[ti + 1]) // 2
        queries3.append(r * dem3.cols + c)
    latencies = []
    all_converged = True
    for qv in queries3:
        t0 = time.perf_counter()
        result = eng3.query(qv, 5)
        latencies.append(time.perf_counter() - t0)
        all_converged = all_converged and result.converged
    scale_rows = [
        {
            "dem": f"{scale_size}x{scale_size}",
            "grid": f"{tiles3[0]}x{tiles3[1]}",
            "objects": len(vids3),
            "queries": len(queries3),
            "k": 5,
            "setup_seconds": setup_wall,
            "mean_query_seconds": sum(latencies) / len(latencies),
            "max_query_seconds": max(latencies),
            "windows_built": len(eng3.windows_built),
            "tiles_total": tiles3[0] * tiles3[1],
            "all_converged": all_converged,
        }
    ]

    tables = [
        format_table(
            f"Shard identity — BH {identity_size}x{identity_size}, "
            f"{len(queries)} queries (k={k}), cold engine + queries",
            [
                "engine", "queries", "wall_seconds",
                "speedup_vs_monolithic", "identical_results",
                "identical_flags", "windows_built",
            ],
            identity_rows,
        ),
        format_table(
            f"Shard scale (sharded-only) — BH {scale_size}x{scale_size}, "
            f"{n_objects} objects, {tiles3[0]}x{tiles3[1]} grid",
            [
                "dem", "grid", "objects", "queries", "k", "setup_seconds",
                "mean_query_seconds", "max_query_seconds", "windows_built",
                "tiles_total", "all_converged",
            ],
            scale_rows,
        ),
    ]
    rows = {
        "shard_identity": identity_rows,
        "shard_scale": scale_rows,
    }
    if out:
        document = _load_bench_document(out)
        document["params"]["shard"] = {
            "dataset": "BH",
            "identity_size": identity_size,
            "scale_size": scale_size,
            "identity_grids": [list(g) for g in grids],
            "scale_grid": list(tiles3),
            "scale_objects": n_objects,
            "scale_amplitude": amplitude,
            "quick": quick,
        }
        document["rows"].update(rows)
        _write_bench_document(out, document)
    return {"tables": tables, "rows": rows}
