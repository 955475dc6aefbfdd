"""Trace exporters: JSON/JSONL writers and the human ``render()``.

``QueryResult.explain()`` delegates to :func:`render`; the bench
runner's ``--metrics-out`` writes one JSONL record per experiment
point through :func:`write_jsonl`.  Records are plain dicts so the
format stays greppable/jq-able; non-finite floats (an unbounded k-th
interval is ``inf``) use Python's JSON extension literals
(``Infinity``), which :func:`read_jsonl` reads back verbatim.
"""

from __future__ import annotations

import json

from repro.obs.events import LevelEvent, QueryTrace

#: Schema tag of the per-query trace record.  v2: the span tree is
#: named by the phase catalog (``query`` / ``spatial-filter`` /
#: ``interval-ranking`` ...) instead of ``engine.query`` / ``mr3.*`` /
#: ``rank.*``.
QUERY_TRACE_SCHEMA = "repro.query_trace/v2"


def metrics_dict(metrics) -> dict:
    """JSON-ready view of a ``QueryMetrics``-shaped object."""
    return {
        "cpu_seconds": metrics.cpu_seconds,
        "io_seconds": metrics.io_seconds,
        "total_seconds": metrics.total_seconds,
        "pages_accessed": metrics.pages_accessed,
        "logical_reads": metrics.logical_reads,
        "buffer_hit_rate": metrics.buffer_hit_rate,
        "reads_by_class": dict(metrics.reads_by_class),
        "iterations_filter": metrics.iterations_filter,
        "iterations_ranking": metrics.iterations_ranking,
        "candidates_examined": metrics.candidates_examined,
    }


def query_trace(result) -> QueryTrace:
    """Build a :class:`QueryTrace` from a finished ``QueryResult``."""
    events = list(result.filter_trace) + list(result.ranking_trace)
    root = getattr(result, "root_span", None)
    return QueryTrace(
        method=result.method,
        query_vertex=result.query_vertex,
        k=result.k,
        converged=result.converged,
        events=events,
        metrics=metrics_dict(result.metrics),
        spans=root.to_dict() if root is not None else None,
    )


def query_record(result) -> dict:
    """One JSONL-ready record for a finished query.

    Degradation keys are only present on degraded (budget-exhausted)
    results, so records of exact queries — and the golden traces
    built from them — are byte-identical to the pre-budget format.
    """
    record = query_trace(result).to_dict()
    record["schema"] = QUERY_TRACE_SCHEMA
    if getattr(result, "degraded", False):
        record["degraded"] = True
        record["max_error"] = result.max_error
        if getattr(result, "degraded_reason", None):
            record["degraded_reason"] = result.degraded_reason
        if getattr(result, "budget_reason", None):
            record["budget_reason"] = result.budget_reason
    return record


def normalize_record(record: dict) -> dict:
    """Copy of a ``repro.query_trace/v2`` record with every wall-clock
    quantity zeroed (metrics seconds, per-event CPU, span durations).

    Page counts, candidate counts and bound values are deterministic
    for a given engine/query and stay untouched — this is what golden
    regression tests compare against.
    """
    out = json.loads(json.dumps(record, sort_keys=True))
    metrics = out.get("metrics")
    if isinstance(metrics, dict):
        for key in ("cpu_seconds", "io_seconds", "total_seconds"):
            if key in metrics:
                metrics[key] = 0.0
    for event in out.get("events", []):
        if "cpu_seconds" in event:
            event["cpu_seconds"] = 0.0

    def scrub(span: dict) -> None:
        span["duration_seconds"] = 0.0
        for child in span.get("children", []):
            scrub(child)

    if isinstance(out.get("spans"), dict):
        scrub(out["spans"])
    return out


def write_jsonl(path, records, append: bool = False) -> int:
    """Write dict records one-per-line; returns the record count."""
    mode = "a" if append else "w"
    count = 0
    with open(path, mode, encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    return count


def read_jsonl(path) -> list[dict]:
    """Read back a JSONL file written by :func:`write_jsonl`."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ----------------------------------------------------------------------
# human rendering
# ----------------------------------------------------------------------

def _render_event(event: LevelEvent) -> str:
    done = "  DONE" if event.done else ""
    io = ""
    if event.logical_reads or event.physical_reads:
        io = f"  io {event.physical_reads}/{event.logical_reads} pages"
    return (
        f"  level {event.level}: DMTM {event.dmtm_resolution:>5.1%} / "
        f"MSDN {event.msdn_resolution:>4.0%}  active {event.active_before}"
        f" -> {event.active_after}  kth in [{event.kth_lb:.1f}, "
        f"{event.kth_ub:.1f}]{io}{done}"
    )


def render(result) -> str:
    """Human-readable account of how a query was answered.

    This is the body of ``QueryResult.explain()``: the two ranking
    phases level by level (with per-level physical/logical page
    counts), then the cost line including the simulated I/O time and
    buffer behaviour that raw page counts hide.
    """
    lines = [
        f"{result.method} query at vertex {result.query_vertex}, "
        f"k={result.k}, converged={result.converged}"
    ]
    if getattr(result, "degraded", False):
        if getattr(result, "degraded_reason", None) == "storage":
            reason = (
                "storage faults survived the retry policy; redundant "
                "bound sources substituted"
            )
        else:
            reason = (
                getattr(result, "budget_reason", None) or "budget exhausted"
            )
        lines.append(
            f"DEGRADED: {reason}; answer is best-known top-{result.k} "
            f"with max_error {result.max_error:.1f}"
        )
    for label, trace in (
        ("step 2 (filter C1)", result.filter_trace),
        ("step 4 (rank C2)", result.ranking_trace),
    ):
        if not trace:
            continue
        lines.append(f"{label}:")
        for event in trace:
            lines.append(_render_event(event))
    m = result.metrics
    lines.append(
        f"cost: {m.cpu_seconds * 1000:.0f} ms CPU + "
        f"{m.io_seconds * 1000:.0f} ms I/O, "
        f"{m.pages_accessed} pages ({m.logical_reads} logical, "
        f"hit rate {m.buffer_hit_rate:.0%}), "
        f"{len(result.object_ids)} results"
    )
    if m.reads_by_class:
        breakdown = ", ".join(
            f"{cls}={count}" for cls, count in sorted(m.reads_by_class.items())
        )
        lines.append(f"pages by structure: {breakdown}")
    return "\n".join(lines)
