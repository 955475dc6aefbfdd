"""Tracing spans: the per-invocation view of a query.

A :class:`Span` is a named, timed unit of work carrying free-form
attributes; spans nest (``children``) to form a per-query tree such as

    query                {entry: query, method, k, ...}
      spatial-filter     {step: 1, k, candidates}
      interval-ranking   {phase: filter, level: 0, ...}
        bound-composition
      interval-ranking   {phase: filter, level: 1, ...}
        bound-composition
      spatial-filter     {step: 3, radius, candidates}
      interval-ranking   {phase: ranking, level: 0, ...}
        bound-composition

Spans are recorded by the one instrumentation seam,
:meth:`repro.obs.context.ObsContext.phase`: under a tracing context
every non-leaf frame records one span under the enclosing frame's
span, on a *thread-local* frame stack (so nesting is correct even when
several engines query concurrently), and finished root spans collect
in the context (``ctx.finished_spans()`` / ``ctx.take_spans()``).
Work handed to a pool thread nests under the frame that waits for it
through :meth:`~repro.obs.context.ObsContext.nested_under`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed unit of work in a trace tree."""

    name: str
    attributes: dict = field(default_factory=dict)
    started_at: float = 0.0  # perf_counter timestamp (relative only)
    duration: float | None = None  # seconds; None while still open
    status: str = "ok"  # "ok" | "error"
    error: str | None = None
    children: list["Span"] = field(default_factory=list)

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    @property
    def finished(self) -> bool:
        return self.duration is not None

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """All spans named ``name`` in this subtree."""
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the exporters)."""
        out = {
            "name": self.name,
            "duration_seconds": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }
        if self.error is not None:
            out["error"] = self.error
        return out
