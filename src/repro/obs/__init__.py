"""Observability layer: tracing spans, metrics, scoped contexts,
phase profiling and per-query trace export.

Everything here is zero-dependency and optional.  Telemetry is
scoped through :class:`ObsContext` (registry + tracer + profiler): the
engines and the batch executor take ``obs=`` and activate it, and
every layer reads its instruments from the active context
(:func:`current`), falling back to the process-wide default context,
whose :data:`~repro.obs.tracing.NULL_TRACER` and
:data:`~repro.obs.profile.NULL_PROFILER` spans/phases are no-ops.  See
docs/observability.md for the concepts, the phase catalog and the
measured overhead.
"""

from repro.obs.context import (
    ObsContext,
    active_profiler,
    active_registry,
    current,
    default_context,
)
from repro.obs.events import LevelEvent, QueryTrace
from repro.obs.export import (
    query_record,
    query_trace,
    read_jsonl,
    render,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from repro.obs.profile import (
    NULL_PROFILER,
    PHASES,
    Profile,
    Profiler,
    profile_from_record,
    profile_record,
)
from repro.obs.tracing import NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LevelEvent",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_TRACER",
    "ObsContext",
    "PHASES",
    "Profile",
    "Profiler",
    "QueryTrace",
    "Span",
    "Tracer",
    "active_profiler",
    "active_registry",
    "current",
    "default_context",
    "default_registry",
    "profile_from_record",
    "profile_record",
    "query_record",
    "query_trace",
    "read_jsonl",
    "render",
    "write_jsonl",
]
