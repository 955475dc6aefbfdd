"""Zero-dependency tracing: nestable, timed spans.

A :class:`Span` is a named, timed unit of work carrying free-form
attributes; spans nest (``children``) to form a per-query tree such as

    engine.query
      mr3.knn_2d
      mr3.filter
        rank.level  {phase: filter, level: 0}
        rank.level  {phase: filter, level: 1}
      mr3.range_2d
      mr3.ranking
        rank.level  {phase: ranking, level: 0}

A :class:`Tracer` keeps a *thread-local* active-span stack (so nesting
is correct even when several engines query concurrently) and collects
finished root spans; work handed to a pool thread nests under the
span that waits for it through :meth:`Tracer.nested_under`.  Tracing is **optional and cheap**: a disabled
tracer hands out a shared no-op span whose enter/exit do nothing, so
instrumented code pays one attribute check per ``span()`` call and
nothing else (see docs/observability.md for measured overhead).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
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


class _NoopSpan:
    """Shared do-nothing span handed out by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager binding one Span to a tracer's active stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._span.started_at = time.perf_counter()
        self._tracer._stack().append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.duration = time.perf_counter() - span.started_at
        if exc is not None:
            span.status = "error"
            span.error = f"{exc_type.__name__}: {exc}"
        stack = self._tracer._stack()
        # Exception safety: the span is always popped and recorded,
        # even when the body raised — the stack cannot leak.
        if stack and stack[-1] is span:
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._tracer._lock:
                self._tracer._finished.append(span)
        return False  # never swallow the exception


class Tracer:
    """Collects span trees; disabled tracers are no-ops.

    One tracer per :class:`~repro.obs.ObsContext`
    (``ObsContext(tracing=True)``); instrumented code reaches it through
    the active context::

        tracer = current().tracer
        with tracer.span("engine.query", k=5) as sp:
            sp.set_attribute("candidates", 12)
        tracer.finished()[-1].duration
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attributes):
        """Open a nested span; use as a context manager."""
        if not self.enabled:
            return NOOP_SPAN
        return _SpanContext(self, Span(name=name, attributes=attributes))

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def nested_under(self, parent: Span | None):
        """Nest the spans this thread opens inside the block under
        ``parent``, an open span of another thread — a pool task's work
        under the span that waits for it — instead of starting new
        roots.  A no-op when ``parent`` is None."""
        if parent is None:
            yield
            return
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            if stack and stack[-1] is parent:
                stack.pop()

    def adopt(self, spans) -> None:
        """Append another tracer's finished root spans to this one's."""
        with self._lock:
            self._finished.extend(spans)

    def finished(self) -> list[Span]:
        """Finished *root* spans, oldest first."""
        with self._lock:
            return list(self._finished)

    def take(self) -> list[Span]:
        """Return finished root spans and clear the buffer."""
        with self._lock:
            spans, self._finished = self._finished, []
        return spans

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()
        self._stack().clear()


#: Shared disabled tracer of every context built without
#: ``tracing=True``.  ``Tracer(enabled=False)`` spans cost one ``if``.
NULL_TRACER = Tracer(enabled=False)
