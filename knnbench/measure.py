"""Run one workload: timed passes, answer checks and metrics.

A run makes :data:`PASSES` passes.  Every pass clears the shared bound
cache, builds a fresh engine from the DEM, answers one warm-up query
and then sends the identical query stream, so every pass does the same
work.  Every time is in reference seconds (see ``speed.py``): a speed
probe runs before the set-up, after it and before every query, and
the wall time of each timed interval is corrected by the machine's
speed around it.  A query's latency is its median over the passes;
the identity checks below prove the passes did the same work, so the
median only filters noise.  (Raw wall time only errs upwards, which a
minimum filters; corrected time errs both ways, and over ten seeds the
median of the corrected times spread half as much as their minimum.)
Set-up time and, in ``hot_batch``, the batch's wall time are medians
over the passes too.

A traced run instead makes one untraced and one traced pass and
reports per-layer metrics from the traced one (see ``spans.py``).
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from collections import defaultdict, deque
from dataclasses import dataclass, replace

from repro.core import ObjectSet
from repro.core.baseline import exact_knn
from repro.core.batch import BatchQueryExecutor, BoundCache, shared_bound_cache
from repro.terrain.mesh import TriangleMesh
from repro.testkit.oracles import (
    OracleContext,
    check_interval_sandwich,
    check_result_shape,
    check_topk_agreement,
)

import spans as spanlib
from speed import Speedometer
from workloads import (
    FINGERPRINTS,
    WORKLOADS,
    centre_vertex,
    dem_fingerprint,
    objects_fingerprint,
)

PASSES = 4
#: Latency percentiles beyond the median, each reported only when at
#: least ten queries lie beyond it.
TAIL_PERCENTILES = (90, 99)
PAGE_CLASSES = ("dmtm", "msdn", "objects", "index")


@dataclass
class Outcome:
    result: object
    latency: float
    error: str | None


@dataclass
class Pass:
    setup_s: float
    warmup_s: float
    wall_s: float
    outcomes: list
    object_vertices: list
    cache_stats: dict

    @property
    def total_s(self) -> float:
        return self.setup_s + self.wall_s


def tail_percentiles(n: int) -> list[int]:
    """The percentiles of :data:`TAIL_PERCENTILES` with at least ten
    of ``n`` samples beyond them."""
    return [p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10]


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_pass(workload, dem, objects, stream, speed, tracer=None) -> Pass:
    """One pass; every time in it is in reference seconds of ``speed``."""
    # The previous pass's engine is garbage in reference cycles; free
    # it now, untimed, so it neither pads this pass's peak memory nor
    # triggers a collection inside the timed region.
    gc.collect()
    shared_bound_cache().clear()
    if tracer is not None:
        tracer.phase = "setup"
    speed.probe()
    t0 = time.perf_counter()
    engine = workload.build(dem, objects)
    t1 = time.perf_counter()
    speed.probe()
    t2 = time.perf_counter()
    engine.query(centre_vertex(dem), 1)
    t3 = time.perf_counter()
    speed.probe()
    build_s, warmup_s = speed.seconds(t0, t1), speed.seconds(t2, t3)
    if tracer is not None:
        tracer.phase = "query"
    cache_stats = {}
    if workload.kind == "batch":
        # A query's latency here is its service time: the worker
        # thread's CPU time inside engine.query, scaled by the mean
        # speed over the query's wall interval.  Its wall latency
        # mostly measures what the other worker ran meanwhile under the
        # shared interpreter lock, which the order decides.  Each
        # worker probes before its query, and the speed is
        # interpolated between the probes of both: per query that
        # scattered 7 % between passes, the one probe before it 12 %.
        timed = {}
        query = engine.query

        def timed_query(*args, **kwargs):
            speed.probe()
            w0, c0 = time.perf_counter(), time.thread_time()
            result = query(*args, **kwargs)
            timed[id(result)] = (time.thread_time() - c0, w0, time.perf_counter())
            return result

        engine.query = timed_query
        executor = BatchQueryExecutor(engine, workers=2, bound_cache=BoundCache())
        start = time.perf_counter()
        report = executor.run(stream)
        end = time.perf_counter()
        speed.probe()

        def service(result, latency):
            if id(result) not in timed:
                return latency
            cpu, w0, w1 = timed[id(result)]
            return cpu * speed.seconds(w0, w1) / (w1 - w0)

        errors = {e.index: f"{e.kind}: {e.message}" for e in report.errors}
        outcomes = [
            Outcome(result, service(result, latency), errors.get(i))
            for i, (result, latency) in enumerate(
                zip(report.results, report.latencies)
            )
        ]
        cache_stats = report.cache_stats
    else:
        answers = []
        start = time.perf_counter()
        for vertex, k in stream:
            speed.probe()
            q0 = time.perf_counter()
            try:
                result, error = engine.query(vertex, k), None
            except Exception as exc:  # counted as a failed query
                result = None
                error = "".join(traceback.format_exception_only(exc)).strip()
            answers.append((result, q0, time.perf_counter(), error))
        end = time.perf_counter()
        speed.probe()
        outcomes = [
            Outcome(result, speed.seconds(q0, q1), error)
            for result, q0, q1, error in answers
        ]
    vertices = objects if objects is not None else engine.objects.vertex_ids
    return Pass(build_s + warmup_s, warmup_s, speed.seconds(start, end),
                outcomes, list(vertices), cache_stats)


def aligned(pas: Pass, stream, first) -> Pass:
    """``pas``, which sent ``stream``, with its outcomes in the order
    of ``first``.  A query sent twice is matched occurrence by
    occurrence, which the order of one vertex's queries keeps."""
    if stream is first:
        return pas
    slots = defaultdict(deque)
    for query, outcome in zip(stream, pas.outcomes):
        slots[query].append(outcome)
    return replace(pas, outcomes=[slots[query].popleft() for query in first])


def check_queries(workload, dem, object_vids, stream, passes) -> list[str]:
    """One message per failed stream query (empty when all pass).

    Pass 1 is checked against exact ground truth; later passes must
    reproduce pass 1's answer (and, on sequential workloads, its page
    counts).  Truth is computed on a separate mesh, untimed."""
    truth_mesh = TriangleMesh.from_dem(dem)
    truth_objects = ObjectSet(truth_mesh, object_vids)

    def depth(k):
        return min(len(truth_objects), 2 * k + 8)

    # One exact propagation per vertex, as deep as its deepest query:
    # exact_knn's answer to a shallower depth is a prefix of it.
    deepest = {}
    for vertex, k in stream:
        deepest[vertex] = max(deepest.get(vertex, 0), depth(k))
    truths = {}
    failures = []
    for i, (vertex, k) in enumerate(stream):
        problems = [
            f"pass {p + 1}: {pas.outcomes[i].error}"
            for p, pas in enumerate(passes)
            if pas.outcomes[i].error is not None
        ]
        first = passes[0].outcomes[i].result
        if not problems:
            if first.degraded:
                problems.append(f"degraded ({first.degraded_reason})")
            if vertex not in truths:
                truths[vertex] = exact_knn(
                    truth_mesh, truth_objects, vertex, deepest[vertex])
            # An unconverged answer (schedule exhausted with overlapping
            # intervals) is held to the same tie tolerance as a
            # converged one, which the oracle otherwise skips.  How
            # many answers converge is the declared converged_frac.
            ctx = OracleContext(
                result=replace(first, converged=True),
                truth=truths[vertex][:depth(k)], k=k,
            )
            for check in (check_result_shape, check_interval_sandwich, check_topk_agreement):
                problems.extend(check(ctx))
            for p, pas in enumerate(passes[1:], start=2):
                problems.extend(_identity(first, pas.outcomes[i].result, p, workload))
        if problems:
            failures.append(f"query {i} (vertex {vertex}, k={k}): " + "; ".join(problems))
    return failures


def _page_counts(result, workload) -> tuple:
    # Concurrent workers share one buffer pool, so only the logical
    # reads of a batch query are deterministic.
    m = result.metrics
    return (m.logical_reads, m.pages_accessed if workload.sequential else None)


def _identity(first, other, pass_no, workload) -> list[str]:
    out = []
    if other.object_ids != first.object_ids or other.intervals != first.intervals:
        out.append(f"pass {pass_no} answer differs from pass 1")
    if _page_counts(other, workload) != _page_counts(first, workload):
        out.append(f"pass {pass_no} page counts differ from pass 1")
    return out


def _answered(pas: Pass) -> list:
    return [o.result for o in pas.outcomes if o.result is not None]


def end_to_end_metrics(workload, passes) -> dict:
    n = len(passes[0].outcomes)
    latency = [
        statistics.median(pas.outcomes[i].latency for pas in passes)
        for i in range(n)
    ]
    if workload.sequential:
        qps = n / sum(latency)
    else:
        qps = n / statistics.median(pas.wall_s for pas in passes)
    # Identical in every pass of a one-client workload; in hot_batch
    # the workers share one buffer pool, so the mean over all passes.
    pages = statistics.fmean(
        r.metrics.pages_accessed for pas in passes for r in _answered(pas)
    )
    metrics = {
        "setup_s": (statistics.median(pas.setup_s for pas in passes), "s"),
        "qps": (qps, "queries/s"),
        "query_p50_ms": (statistics.median(latency) * 1000, "ms"),
    }
    for p in tail_percentiles(n):
        metrics[f"query_p{p}_ms"] = (percentile(latency, p) * 1000, "ms")
    metrics["pages_per_query"] = (pages, "pages")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
    )
    return metrics


def layer_metrics(tracer, traced: Pass, untraced: Pass) -> tuple[dict, float]:
    """Per-layer metrics of the traced pass, and the relative gap
    between the summed self times and the summed root query time."""
    n = len(traced.outcomes)
    self_s = spanlib.self_times(tracer.spans)
    query_spans = [
        s for s in tracer.spans if s.phase == "query" and s.query is not None
    ]
    layers = sorted({layer for layer, _ in spanlib.TARGETS})
    self_ms = dict.fromkeys(layers, 0.0)
    calls = dict.fromkeys(layers, 0)
    for s in query_spans:
        self_ms[s.layer] += self_s[s.id] * 1000
        calls[s.layer] += 1
    root_ms = sum(s.duration for s in query_spans if s.parent is None) * 1000
    gap = abs(sum(self_ms.values()) - root_ms) / root_ms if root_ms else 0.0
    metrics = {}
    for layer in layers:
        metrics[f"{layer}.self_ms"] = (self_ms[layer] / n, "ms")
        metrics[f"{layer}.calls"] = (calls[layer] / n, "count")

    results = _answered(traced)
    qm = [r.metrics for r in results]
    metrics["core.ranking.candidates_per_query"] = (
        statistics.fmean(m.candidates_examined for m in qm), "count")
    metrics["core.ranking.levels_per_query"] = (
        statistics.fmean(m.iterations_filter + m.iterations_ranking for m in qm),
        "count")
    metrics["core.ranking.useful_ratio"] = (
        statistics.fmean(r.k / r.metrics.candidates_examined for r in results),
        "ratio")

    stats = traced.cache_stats
    for key, hits, misses in (
        ("bound_cache_hit_ratio", "hits", "misses"),
        ("network_hit_ratio", "network_hits", "network_misses"),
    ):
        total = stats.get(hits, 0) + stats.get(misses, 0)
        metrics[f"core.batch.{key}"] = (
            stats[hits] / total if total else 0.0, "ratio")
    metrics["core.batch.parallelism"] = (
        sum(o.latency for o in traced.outcomes) / traced.wall_s, "ratio")

    logical = sum(m.logical_reads for m in qm)
    physical = sum(m.pages_accessed for m in qm)
    metrics["storage.hit_ratio"] = (
        (logical - physical) / logical if logical else 0.0, "ratio")
    metrics["storage.sim_io_ms"] = (
        statistics.fmean(m.io_seconds for m in qm) * 1000, "ms")
    for cls in PAGE_CLASSES:
        metrics[f"storage.physical.{cls}"] = (
            statistics.fmean(m.reads_by_class.get(cls, 0) for m in qm), "pages")

    builds = [s for s in query_spans if s.layer == "build.engine"]
    metrics["shard.windows_built_per_query"] = (len(builds) / n, "count")
    metrics["shard.window_build_ms"] = (
        sum(s.duration for s in builds) * 1000 / n, "ms")

    setup_spans = [s for s in tracer.spans if s.phase == "setup"]
    for layer in ("mesh", "dmtm", "msdn", "landmarks"):
        metrics[f"setup.{layer}_s"] = (
            sum(s.duration for s in setup_spans if s.layer == f"build.{layer}"),
            "s")
    metrics["setup.first_answer_s"] = (traced.warmup_s, "s")
    metrics["trace.overhead"] = (traced.total_s / untraced.total_s, "ratio")
    return metrics, gap


def run(name: str, seed: int, quick: bool, trace: bool, spans_path=None) -> dict:
    """Run one workload and return its result record."""
    workload = WORKLOADS[name]
    dem = workload.make_dem()
    objects = workload.object_vertices(dem)
    streams = workload.streams(dem, seed, PASSES, quick)
    stream = streams[0]
    speed = Speedometer()
    problems = []
    missing = []
    if trace:
        untraced = run_pass(workload, dem, objects, stream, speed)
        tracer = spanlib.Tracer()
        restore, missing = spanlib.install(tracer)
        try:
            traced = run_pass(workload, dem, objects, stream, speed, tracer)
        finally:
            spanlib.uninstall(restore)
        passes = [untraced, traced]
        metrics, gap = layer_metrics(tracer, traced, untraced)
        metrics["trace.self_time_gap"] = (gap, "ratio")
        if gap > 0.01:
            problems.append(f"layer self times miss the root time by {gap:.2%}")
        if spans_path is not None:
            tracer.write_jsonl(spans_path)
    else:
        passes = [
            aligned(run_pass(workload, dem, objects, s, speed), s, stream)
            for s in streams
        ]
        metrics = end_to_end_metrics(workload, passes)
    object_vids = passes[0].object_vertices
    prints = {
        "dem": dem_fingerprint(dem),
        "objects": objects_fingerprint(object_vids),
    }
    for key, pinned in FINGERPRINTS[name].items():
        if prints[key] != pinned:
            problems.append(f"{key} fingerprint {prints[key]} != pinned {pinned}")
    failures = check_queries(workload, dem, object_vids, stream, passes)
    n = len(stream)
    metrics["failed_frac"] = (len(failures) / n, "fraction")
    metrics["converged_frac"] = (
        sum(o.result is not None and o.result.converged
            for o in passes[0].outcomes) / n,
        "fraction",
    )
    return {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "trace": int(trace),
        "passes": len(passes),
        "queries": n,
        "correct": not failures and not problems,
        "attempted": n,
        "failed": len(failures),
        "problems": problems,
        "failures": failures[:20],
        "missing_targets": missing,
        "fingerprints": prints,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
