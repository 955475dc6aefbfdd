"""repro.resilience — one import for the fault-tolerance surface.

The pieces live where they act (the injector, retry policy and
quarantine in :mod:`repro.storage`, budgets, health and batch
isolation in :mod:`repro.core`), but hardening an engine touches all of them at
once, so this module re-exports the whole contract:

* **Fault model** — :class:`FaultInjector` (seeded schedule of
  transient read errors, silent corruption, latency spikes) attached
  to an engine's simulated disk; :class:`FaultEvent` / ``injector.log``
  is the ground-truth record of what was injected.
* **Detection & retry** — a corrupt attempt is reported as a failed
  CRC check (pages are ids, so corruption is a drawn fault, not
  flipped bytes); :class:`RetryPolicy` bounds re-attempts with deterministic
  (simulated, never slept) backoff; :class:`FaultStats` on the page
  manager counts what was detected, retried and given up on;
  :class:`PageReadError` / :class:`PageCorruptionError` surface only
  once the policy is exhausted.
* **Budgets & degradation** — :class:`QueryBudget` caps a query's
  logical page reads and/or wall-clock seconds; an exhausted budget
  stops refinement at the current resolution and the
  ``QueryResult`` comes back ``degraded=True`` with sound intervals
  and a per-query ``max_error`` bound, never an exception.
* **Degraded-mode execution** — the one response to a storage
  fault.  When a read exhausts the retry policy, the page enters
  :class:`PageQuarantine` (later reads fail fast with
  :class:`QuarantinedPageError` until a probation probe readmits
  it) and the ranker substitutes redundant bound sources —
  stale-but-sound intervals, landmark bounds, per-candidate
  salvage — so ``query``, ``query_point`` and ``range_query`` come
  back ``degraded=True`` with ``degraded_reason="storage"`` (range
  results unconverged) instead of raising.
  :func:`kill_random_pages` builds persistent-fault (kill-list)
  schedules for chaos testing; :class:`EngineHealth` folds the
  quarantine and fault counters into a healthy/degraded/failed
  verdict, ``failed`` once the quarantined fraction of the page
  file crosses its threshold.
* **Batch isolation** — :class:`BatchQueryExecutor` confines each
  member failure to a :class:`BatchError` record, and refuses
  admission (a skipped ``EngineUnhealthy`` record) while the
  engine's health reads ``failed``.
  ``QueryBudget.max_seconds`` is additionally enforced inside the
  CSR kernels (:class:`DeadlineExceeded` is caught at level
  boundaries), so one pathological search cannot blow far past its
  deadline.

Example
-------
>>> from repro import bearhead_like
>>> from repro.core import SurfaceKNNEngine
>>> from repro.resilience import FaultInjector, QueryBudget, RetryPolicy
>>> engine = SurfaceKNNEngine.from_dem(
...     bearhead_like(size=17), density=8,
...     fault_injector=FaultInjector(seed=7, transient_rate=0.05),
...     retry_policy=RetryPolicy(max_attempts=6),
... )
>>> result = engine.query(40, k=3, budget=QueryBudget(max_pages=50))
>>> result.degraded, result.max_error >= 0.0
(True, True)
"""

from repro.core.batch import BatchError
from repro.core.budget import BudgetTracker, QueryBudget
from repro.core.health import (
    HEALTH_DEGRADED,
    HEALTH_FAILED,
    HEALTH_HEALTHY,
    EngineHealth,
)
from repro.errors import (
    PageCorruptionError,
    PageReadError,
    QuarantinedPageError,
    StorageError,
)
from repro.geodesic.deadline import DeadlineExceeded
from repro.storage.faults import (
    FAULT_CORRUPT,
    FAULT_DEAD,
    FAULT_LATENCY,
    FAULT_TRANSIENT,
    FaultEvent,
    FaultInjector,
    FaultStats,
    PageQuarantine,
    QuarantineEntry,
    RetryPolicy,
    kill_random_pages,
)

__all__ = [
    "FAULT_CORRUPT",
    "FAULT_DEAD",
    "FAULT_LATENCY",
    "FAULT_TRANSIENT",
    "HEALTH_DEGRADED",
    "HEALTH_FAILED",
    "HEALTH_HEALTHY",
    "BatchError",
    "BudgetTracker",
    "DeadlineExceeded",
    "EngineHealth",
    "FaultEvent",
    "FaultInjector",
    "FaultStats",
    "PageCorruptionError",
    "PageQuarantine",
    "PageReadError",
    "QuarantineEntry",
    "QuarantinedPageError",
    "QueryBudget",
    "RetryPolicy",
    "StorageError",
    "kill_random_pages",
]
