"""Observability layer: metrics, scoped contexts, one instrumentation
seam feeding phase profiles and tracing spans, and per-query trace
export.

Everything here is zero-dependency and optional.  Telemetry is
scoped through :class:`ObsContext` (a registry and a frame stack):
the engines and the batch executor take ``obs=`` and activate it,
and every layer opens its frames and counts through the active
context (:func:`current`) — ``ctx.phase(name, **attrs)`` and
``ctx.count(name, n)`` — falling back to the process-wide default
context, which neither traces nor profiles, so its frames are one
shared no-op.  See docs/observability.md for the concepts, the phase
catalog and the measured overhead.
"""

from repro.obs.context import (
    ObsContext,
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
    PHASES,
    Profile,
    profile_from_record,
    profile_record,
)
from repro.obs.tracing import Span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LevelEvent",
    "MetricsRegistry",
    "ObsContext",
    "PHASES",
    "Profile",
    "QueryTrace",
    "Span",
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
