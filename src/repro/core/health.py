"""Engine health: a small state machine over the storage substrate.

An engine that keeps answering queries while its simulated disk rots
needs a single place where "how bad is it?" is decided.
:class:`EngineHealth` folds the page quarantine and the fault
counters into a three-state verdict:

* ``HEALTHY`` — no storage trouble observed; every answer is exact.
* ``DEGRADED`` — some reads have failed past the retry policy (pages
  are quarantined, or ``reads_failed_total`` is non-zero).  Queries
  still run; answers may come back ``degraded=True`` with
  ``degraded_reason="storage"`` and a sound ``max_error``.
* ``FAILED`` — the substrate is effectively gone: the quarantined
  fraction of the page file crossed ``failed_quarantine_fraction``.
  Batch executors stop admitting new queries (fail fast) instead of
  returning answers that are mostly fallback.

The verdict is *evaluated on read* — ``state()`` recomputes from the
live quarantine and fault state, so readmissions move the engine
back toward ``HEALTHY`` without anyone having to push events into
this object.  Transitions are recorded (``transitions`` and the
``engine.health_transitions_total`` counter) so tests and benchmarks
can assert the trajectory.
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.obs.context import active_registry

HEALTH_HEALTHY = "healthy"
HEALTH_DEGRADED = "degraded"
HEALTH_FAILED = "failed"


class EngineHealth:
    """Live health verdict for one :class:`SurfaceKNNEngine`.

    ``failed_quarantine_fraction`` is the quarantined share of the
    page file at which the engine is declared ``FAILED`` (default
    half: with most pages refusing reads, degraded answers stop being
    useful).
    """

    def __init__(self, engine, failed_quarantine_fraction: float = 0.5):
        if not 0.0 < failed_quarantine_fraction <= 1.0:
            raise QueryError(
                "failed_quarantine_fraction must be in (0, 1], got "
                f"{failed_quarantine_fraction}"
            )
        self.engine = engine
        self.failed_quarantine_fraction = failed_quarantine_fraction
        self._last_state = HEALTH_HEALTHY
        self.cause: str = ""
        self.cause_kind: str = ""
        # (from_state, to_state, cause) triples, in observation order.
        self.transitions: list[tuple[str, str, str]] = []

    def _evaluate(self) -> tuple[str, str, str]:
        """(state, cause, cause_kind) from live substrate state."""
        pages = self.engine.pages
        if pages is None:
            return HEALTH_HEALTHY, "", ""
        quarantined = len(pages.quarantine)
        total = pages.num_pages
        if total > 0 and quarantined / total >= self.failed_quarantine_fraction:
            return (
                HEALTH_FAILED,
                f"{quarantined}/{total} pages quarantined "
                f"(>= {self.failed_quarantine_fraction:.0%})",
                "quarantine",
            )
        if quarantined > 0:
            return (
                HEALTH_DEGRADED,
                f"{quarantined} page(s) quarantined",
                "quarantine",
            )
        if pages.fault_stats.reads_failed_total > 0:
            return (
                HEALTH_DEGRADED,
                f"{pages.fault_stats.reads_failed_total} read(s) failed "
                "past the retry policy",
                "faults",
            )
        return HEALTH_HEALTHY, "", ""

    def state(self) -> str:
        """Current verdict; records (and counts) state transitions."""
        state, cause, kind = self._evaluate()
        self.cause = cause
        self.cause_kind = kind
        if state != self._last_state:
            self.transitions.append((self._last_state, state, cause))
            active_registry().counter("engine.health_transitions_total").add(1)
            self._last_state = state
        return state

    @property
    def healthy(self) -> bool:
        return self.state() == HEALTH_HEALTHY

    def as_dict(self) -> dict:
        """JSON-ready snapshot (for bench reports and CI smoke)."""
        state = self.state()
        out = {
            "state": state,
            "cause": self.cause,
            "cause_kind": self.cause_kind,
            "transitions": len(self.transitions),
        }
        pages = self.engine.pages
        if pages is not None:
            out["quarantined_pages"] = len(pages.quarantine)
            out["num_pages"] = pages.num_pages
            out["reads_failed_total"] = pages.fault_stats.reads_failed_total
        return out
