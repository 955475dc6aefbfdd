"""Scoped telemetry contexts: one registry and one frame stack per scope.

PR 1 gave the repo a process-wide metrics singleton, which worked
until two things needed isolation: tests (conftest had to autouse-reset the
registry between modules — a reset-ordering hazard) and the planned
sk-NN service (per-tenant telemetry cannot share one mutable global).

An :class:`ObsContext` bundles a
:class:`~repro.obs.metrics.MetricsRegistry` with the one
instrumentation seam of the stack, a per-thread **frame stack**:

* :meth:`ObsContext.phase` opens one timed frame per instrumented
  block.  With profiling on, the frame aggregates into the
  :class:`~repro.obs.profile.PhaseNode` at its path (a call tree keyed
  by phase path); with tracing on, it also records a
  :class:`~repro.obs.tracing.Span` under the enclosing frame's span.
  Both outputs come from one pair of timestamps, so a root profile's
  total equals its root span's duration.  Leaf phases (graph kernels,
  page misses; see :data:`~repro.obs.profile.PHASES`) are profiled but
  never traced.  With both off, ``phase`` returns one shared no-op
  after one check, and the context allocates no frame state at all;
* :meth:`ObsContext.count` adds to the registry counter of that name
  and, under profiling, to the innermost frame's counter of the same
  name; :meth:`ObsContext.tally` is the frame-only form for per-element
  counts on hot paths;
* the engines accept ``obs=`` (constructor or per call) and
  *activate* the context around each query.  Every layer below them
  (the MR3 processor, the ranker, the page manager, the graph
  kernels, the bound cache) takes its context from :func:`current`
  and from nowhere else;
* :class:`~repro.core.batch.BatchQueryExecutor` derives a per-query
  :meth:`child` context in each worker and merges it back into the
  batch context — the per-tenant aggregation shape the service needs;
* :func:`current` resolves the active context through a
  :mod:`contextvars` variable, falling back to a module-level
  **default context** that wraps the process-wide registry
  (:func:`repro.obs.metrics.default_registry`), so code that never
  passes ``obs=`` keeps sharing one set of counters.
"""

from __future__ import annotations

import contextvars
import threading
import time
from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import UNTRACED_PHASES, PhaseNode, Profile
from repro.obs.tracing import Span

__all__ = [
    "NOOP_FRAME",
    "ObsContext",
    "active_registry",
    "current",
    "default_context",
]


#: Finished roots a context keeps of each kind (spans, profiles);
#: older ones are dropped first.
_MAX_FINISHED = 4096


class _Activation:
    """Context manager installing an ObsContext as the active one."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: "ObsContext"):
        self._ctx = ctx

    def __enter__(self) -> "ObsContext":
        self._token = _active.set(self._ctx)
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> bool:
        _active.reset(self._token)
        return False


class _NoopFrame:
    """Shared do-nothing frame of a context that neither traces nor
    profiles (and of leaf phases in a context that only traces)."""

    __slots__ = ()
    node = None
    span = None

    def __enter__(self) -> "_NoopFrame":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value) -> None:
        pass


NOOP_FRAME = _NoopFrame()


class _Frame:
    """One open block on a context's frame stack.

    ``node`` is the aggregated profile node the frame bills (None when
    profiling is off or the frame runs under :meth:`ObsContext.nested_under`),
    ``span`` the span it records (None when tracing is off or the
    phase is a leaf), and ``scope`` the span its child frames nest
    under: its own span, else the enclosing one."""

    __slots__ = (
        "_ctx", "name", "_attributes", "node", "span", "scope", "_stack", "_t0",
    )

    def __init__(self, ctx: "ObsContext", name: str, attributes: dict):
        self._ctx = ctx
        self.name = name
        self._attributes = attributes

    def __enter__(self) -> "_Frame":
        ctx = self._ctx
        # A frame closes on the thread that opened it: keep its stack.
        stack = self._stack = ctx._stack()
        parent = stack[-1] if stack else None
        node = None
        if ctx.profiling:
            if parent is None:
                node = PhaseNode(self.name)
            elif parent.node is not None:
                children = parent.node.children
                node = children.get(self.name)
                if node is None:
                    node = children[self.name] = PhaseNode(self.name)
            if node is not None:
                node._open += 1
        self.node = node
        scope = parent.scope if parent is not None else None
        if ctx.tracing and self.name not in UNTRACED_PHASES:
            self.span = scope = Span(name=self.name, attributes=self._attributes)
        else:
            self.span = None
        self.scope = scope
        stack.append(self)
        self._t0 = time.perf_counter()
        if self.span is not None:
            self.span.started_at = self._t0
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._t0
        ctx = self._ctx
        stack = self._stack
        # Exception safety: the frame is always popped and recorded,
        # even when the body raised — the stack cannot leak.
        if stack and stack[-1] is self:
            stack.pop()
        parent = stack[-1] if stack else None
        node = self.node
        if node is not None:
            node._open -= 1
            if node._open == 0:
                # Re-entrant phases (a kernel inside a kernel) only
                # bill the outermost entry, so seconds never exceed
                # real wall time.
                node.seconds += elapsed
            node.calls += 1
            if parent is None:
                ctx._finish(ctx._profiles, Profile(node))
        span = self.span
        if span is not None:
            span.duration = elapsed
            if exc is not None:
                span.status = "error"
                span.error = f"{exc_type.__name__}: {exc}"
            enclosing = parent.scope if parent is not None else None
            if enclosing is not None:
                enclosing.children.append(span)
            else:
                ctx._finish(ctx._spans, span)
        return False  # never swallow the exception

    def set_attribute(self, key: str, value) -> None:
        """Set an attribute on the frame's span (a no-op untraced)."""
        if self.span is not None:
            self.span.attributes[key] = value


class _Anchor:
    """Stack entry of :meth:`ObsContext.nested_under`: frames above it
    nest their spans under ``scope`` and bill no profile node."""

    __slots__ = ("scope",)
    node = None

    def __init__(self, scope: Span | None):
        self.scope = scope


class ObsContext:
    """One scope's observability: a metrics registry and a frame stack.

    Parameters
    ----------
    name:
        Diagnostic label (shows up in ``repr``; child contexts derive
        ``parent/child`` names).
    registry:
        The metrics registry; by default a **fresh** one.
    tracing / profiling:
        ``tracing=True`` makes every non-leaf frame record a span,
        ``profiling=True`` makes every frame feed the phase profile;
        with neither, :meth:`phase` is a shared no-op.
    """

    def __init__(
        self,
        name: str = "",
        *,
        registry: MetricsRegistry | None = None,
        tracing: bool = False,
        profiling: bool = False,
    ):
        self.name = name
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracing = bool(tracing)
        self.profiling = bool(profiling)
        self._framed = self.tracing or self.profiling
        if self._framed:
            self._local = threading.local()
            self._lock = threading.Lock()
            self._spans: list[Span] = []
            self._profiles: list[Profile] = []

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"ObsContext(name={self.name!r}, "
            f"tracing={self.tracing}, profiling={self.profiling})"
        )

    # -- scoping --------------------------------------------------------

    def activate(self) -> _Activation:
        """Install this context as the active one for the dynamic
        extent of a ``with`` block (re-entrant; per-thread/task via
        :mod:`contextvars`)."""
        return _Activation(self)

    # -- frames ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def phase(self, name: str, **attributes):
        """Open one timed frame named ``name``; use as a context
        manager.  The frame's ``set_attribute`` adds span attributes
        while (or after) it runs."""
        if not self._framed or (
            not self.profiling and name in UNTRACED_PHASES
        ):
            return NOOP_FRAME
        return _Frame(self, name, attributes)

    def current_frame(self):
        """The innermost open frame on this thread, if any."""
        if not self._framed:
            return None
        stack = self._stack()
        return stack[-1] if stack else None

    def leaf(self, name: str) -> PhaseNode | None:
        """The aggregated node of phase ``name`` under the innermost
        open frame, created on first use, or None when profiling is
        off or no profiled frame is open.

        For a hot leaf phase inside which nothing opens a frame or
        counts: the caller adds its seconds, calls and counters to the
        node itself, which records what opening the phase per call
        records without pushing a frame each time."""
        if not self.profiling:
            return None
        stack = self._stack()
        if not stack or stack[-1].node is None:
            return None
        children = stack[-1].node.children
        node = children.get(name)
        if node is None:
            node = children[name] = PhaseNode(name)
        return node

    @contextmanager
    def nested_under(self, frame):
        """Nest the frames this thread opens inside the block under
        ``frame``, an open frame of another thread — a pool task's work
        under the frame that waits for it — instead of starting new
        roots.  Their spans join ``frame``'s span tree; they bill no
        profile node, because the waiting thread's profile already
        covers the wait.  A no-op when ``frame`` is None."""
        if frame is None:
            yield
            return
        stack = self._stack()
        anchor = _Anchor(frame.scope)
        stack.append(anchor)
        try:
            yield
        finally:
            if stack and stack[-1] is anchor:
                stack.pop()

    # -- counters -------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the registry counter ``name`` and, under
        profiling, to the innermost frame's counter ``name``."""
        self.registry.counter(name).add(n)
        if self.profiling:
            self.tally(name, n)

    def tally(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the innermost frame's counter ``name`` only —
        for per-element counts on hot paths that have no registry
        counter.  A no-op unless profiling."""
        if not self.profiling:
            return
        stack = self._stack()
        if stack and stack[-1].node is not None:
            counters = stack[-1].node.counters
            counters[name] = counters.get(name, 0) + n

    # -- finished roots -------------------------------------------------

    def _finish(self, buffer: list, item) -> None:
        with self._lock:
            buffer.append(item)
            if len(buffer) > _MAX_FINISHED:
                del buffer[:-_MAX_FINISHED]

    def finished_spans(self) -> list[Span]:
        """Finished root spans, oldest first (empty untraced)."""
        if not self.tracing:
            return []
        with self._lock:
            return list(self._spans)

    def finished_profiles(self) -> list[Profile]:
        """Finished root profiles, oldest first (empty unprofiled)."""
        if not self.profiling:
            return []
        with self._lock:
            return list(self._profiles)

    def take_spans(self) -> list[Span]:
        """Return the finished root spans and clear the buffer."""
        if not self.tracing:
            return []
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    def take_profiles(self) -> list[Profile]:
        """Return the finished root profiles and clear the buffer."""
        if not self.profiling:
            return []
        with self._lock:
            profiles, self._profiles = self._profiles, []
        return profiles

    def adopt(self, spans=(), profiles=()) -> None:
        """Append finished root spans and profiles of another context
        to this one's (each kind only when this context records it)."""
        if self.tracing and spans:
            for span in spans:
                self._finish(self._spans, span)
        if self.profiling and profiles:
            for profile in profiles:
                self._finish(self._profiles, profile)

    # -- hierarchy ------------------------------------------------------

    def child(self, name: str = "") -> "ObsContext":
        """A fresh context inheriting this one's *enablement*.

        The child gets its own registry and its own frame stack and
        buffers, so one query's telemetry is isolated until
        :meth:`absorb` folds it back into the parent — the batch
        executor's per-query shape.
        """
        label = f"{self.name}/{name}" if self.name and name else (
            name or self.name
        )
        return ObsContext(
            name=label, tracing=self.tracing, profiling=self.profiling
        )

    def absorb(self, child: "ObsContext") -> None:
        """Merge a finished child's telemetry into this context:
        counters add, gauges last-write-wins, histograms merge
        bucket-wise, finished root spans and profiles are adopted."""
        self.registry.merge(child.registry)
        self.adopt(child.take_spans(), child.take_profiles())

    # -- convenience ----------------------------------------------------

    def collect(self) -> dict:
        """Snapshot of this context's metrics (registry.collect())."""
        return self.registry.collect()


#: The active context for the current thread/task (None → default).
_active: contextvars.ContextVar[ObsContext | None] = contextvars.ContextVar(
    "repro_obs_context", default=None
)

_default: ObsContext | None = None
_default_lock = threading.Lock()


def default_context() -> ObsContext:
    """The process-wide fallback context.

    Wraps the module-level registry, so code that never passes
    ``obs=`` keeps sharing the exact same counters it did before
    scoped contexts existed.
    """
    global _default
    if _default is None:
        from repro.obs import metrics

        with _default_lock:
            if _default is None:
                _default = ObsContext(
                    name="default", registry=metrics.default_registry()
                )
    return _default


def current() -> ObsContext:
    """The active context, falling back to :func:`default_context`."""
    ctx = _active.get()
    return ctx if ctx is not None else default_context()


def active_registry() -> MetricsRegistry:
    """Registry of the active context — what code without an engine
    handle (graph kernels, the page manager) reports into."""
    return current().registry
