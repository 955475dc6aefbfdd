"""Scoped telemetry contexts: registry + tracer + profiler as a unit.

PR 1 gave the repo a process-wide metrics singleton, which worked
until two things needed isolation: tests (conftest had to autouse-reset the
registry between modules — a reset-ordering hazard) and the planned
sk-NN service (per-tenant telemetry cannot share one mutable global).

An :class:`ObsContext` bundles the three observability instruments —
a :class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.tracing.Tracer` and a
:class:`~repro.obs.profile.Profiler` — into one explicitly-carried
value:

* the engines accept ``obs=`` (constructor or per call) and
  *activate* the context around each query.  Every layer below them
  (the MR3 processor, the ranker, the page manager, the graph
  kernels, the bound cache) takes its registry, tracer and profiler
  from the active context and from nowhere else;
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

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import NULL_PROFILER, Profiler
from repro.obs.tracing import NULL_TRACER, Tracer

__all__ = [
    "ObsContext",
    "active_profiler",
    "active_registry",
    "current",
    "default_context",
]


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


class ObsContext:
    """One scope's observability instruments.

    Parameters
    ----------
    name:
        Diagnostic label (shows up in ``repr``; child contexts derive
        ``parent/child`` names).
    registry:
        The metrics registry; by default a **fresh** one.
    tracing / profiling:
        ``tracing=True`` gives the context an enabled :class:`Tracer`,
        ``profiling=True`` an enabled :class:`Profiler`; otherwise it
        holds the shared no-op instruments.
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
        self.tracer = Tracer() if tracing else NULL_TRACER
        self.profiler = Profiler() if profiling else NULL_PROFILER

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"ObsContext(name={self.name!r}, "
            f"tracing={self.tracer.enabled}, "
            f"profiling={self.profiler.enabled})"
        )

    # -- scoping --------------------------------------------------------

    def activate(self) -> _Activation:
        """Install this context as the active one for the dynamic
        extent of a ``with`` block (re-entrant; per-thread/task via
        :mod:`contextvars`)."""
        return _Activation(self)

    # -- hierarchy ------------------------------------------------------

    def child(self, name: str = "") -> "ObsContext":
        """A fresh context inheriting this one's *enablement*.

        The child gets its own registry, its own tracer (enabled iff
        the parent's is) and its own profiler (likewise), so one
        query's telemetry is isolated until :meth:`absorb` folds it
        back into the parent — the batch executor's per-query shape.
        """
        label = f"{self.name}/{name}" if self.name and name else (
            name or self.name
        )
        return ObsContext(
            name=label,
            tracing=self.tracer.enabled,
            profiling=self.profiler.enabled,
        )

    def absorb(self, child: "ObsContext") -> None:
        """Merge a finished child's telemetry into this context:
        counters add, gauges last-write-wins, histograms merge
        bucket-wise, finished profiles and root spans are adopted."""
        self.registry.merge(child.registry)
        if child.profiler.enabled and self.profiler.enabled:
            self.profiler.adopt(child.profiler.take())
        if child.tracer.enabled and self.tracer.enabled:
            self.tracer.adopt(child.tracer.take())

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


def active_profiler() -> Profiler:
    """Profiler of the active context (no-op unless a profiling
    context is active)."""
    return current().profiler
