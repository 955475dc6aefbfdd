"""Concurrent batch query execution with shared bound caching.

Road-network k-NN experience says simple, cache-friendly batch
execution beats clever per-query indexing at scale: nearby queries in
a batch repeat most of each other's work.  For MR3 that repeated work
is the per-level bound estimation — DMTM network extractions and
Dijkstra passes for upper bounds, MSDN plane sweeps for lower bounds
and the dummy-lb screens that skip them, Kanai-Suzuki polishing for
the stragglers.  All of it is a *pure function* of (structures,
source, target, resolution, region; a screen also of its corridor),
which makes it safely memoizable across queries.  A screen keeps the
interval it learned on its corridor bound, not its yes/no, so a later
query decides its own threshold from it where it can.

Three pieces cooperate:

* :class:`BoundCache` — a thread-safe LRU memo of those pure
  computations, one per executor unless the caller passes one (the
  process-wide one is :func:`shared_bound_cache`).  The transparency
  contract: a cache hit returns exactly the value the miss path would
  compute (a screen's hit, an interval holding the same bound, which
  decides as the screen would), so reuse changes CPU cost only —
  never results, bounds, or logical page accounting (page charging
  happens per integrated region *before* candidates consult the
  cache).  ``BatchQueryExecutor(workers=1)`` is therefore
  bit-identical to a plain ``engine.query`` loop.
* a shared :class:`~repro.storage.pages.BufferPool` — the engines'
  page managers already cache through a pool object, which one
  engine's worker threads share, and several engines can share one
  passed as ``buffer_pool=``.
* :class:`~repro.storage.stats.ThreadLocalIOStatistics` — installed
  on the engine by the executor so each worker accounts page I/O into
  its own counters; per-query deltas stay exact under concurrency and
  still sum to the global aggregate.

Failures stay per query: a member's library error becomes a
:class:`BatchError` record, and while the engine's health reads
``failed`` the remaining specs are skipped unrun.  Storage faults reach
neither path — queries degrade on them (``degraded_reason="storage"``).

Example
-------
>>> from repro import bearhead_like
>>> from repro.core import SurfaceKNNEngine
>>> from repro.core.batch import BatchQueryExecutor
>>> engine = SurfaceKNNEngine.from_dem(bearhead_like(size=17), density=8)
>>> executor = BatchQueryExecutor(engine, workers=4)
>>> report = executor.run([(3, 2), (40, 3), (3, 2)])
>>> [len(r.object_ids) for r in report.results]
[2, 3, 2]
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.budget import QueryBudget
from repro.errors import QueryError, SurfKnnError
from repro.obs.context import ObsContext, current
from repro.storage.stats import ThreadLocalIOStatistics

_MISSING = object()


class BoundCache:
    """Thread-safe LRU memo of deterministic bound computations.

    Keys are tuples built by the ranker from the query anchors, the
    target vertex, the resolution and the (hashable) search region;
    values are whatever the underlying computation produced,
    ``None`` included (a "no path inside this region" outcome is as
    cacheable as a bound).  Extracted networks are kept in a second,
    smaller LRU because entries are whole graphs.

    Because every cached value equals the value the computation would
    return for the same key, sharing one cache across queries — or
    across threads, under this cache's lock — cannot change any
    query's answer, bounds, or logical read counts; it only removes
    repeated CPU work.  That is what keeps batch execution
    bit-identical to sequential execution.
    """

    def __init__(self, max_entries: int = 200_000, max_networks: int = 64):
        if max_entries < 1 or max_networks < 1:
            raise QueryError("cache capacities must be >= 1")
        self.max_entries = max_entries
        self.max_networks = max_networks
        self._lock = threading.RLock()
        self._values: OrderedDict = OrderedDict()
        self._networks: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        # [hits, misses] per key kind: a tuple key's first item (the
        # ranker's "ub", "ubr", "lb", "ks", "screen"), else "other".
        self._by_kind: dict[str, list[int]] = {}
        self.network_hits = 0
        self.network_misses = 0

    def lookup(self, key) -> tuple[bool, object]:
        """(found, value); value may legitimately be None.  Hits and
        misses count on the caller's profile frame only: one lookup
        per bound is too hot for a registry counter."""
        obs = current()
        kind = key[0] if isinstance(key, tuple) else "other"
        with self._lock:
            counts = self._by_kind.get(kind)
            if counts is None:
                counts = self._by_kind[kind] = [0, 0]
            value = self._values.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                counts[1] += 1
                obs.tally("bound_cache_misses")
                return False, None
            self._values.move_to_end(key)
            self.hits += 1
            counts[0] += 1
            obs.tally("bound_cache_hits")
            return True, value

    def store(self, key, value) -> None:
        with self._lock:
            self._values[key] = value
            self._values.move_to_end(key)
            while len(self._values) > self.max_entries:
                self._values.popitem(last=False)

    def lookup_network(self, key) -> tuple[bool, object]:
        obs = current()
        with self._lock:
            value = self._networks.get(key, _MISSING)
            if value is _MISSING:
                self.network_misses += 1
                obs.tally("network_cache_misses")
                return False, None
            self._networks.move_to_end(key)
            self.network_hits += 1
            obs.tally("network_cache_hits")
            return True, value

    def store_network(self, key, network) -> None:
        with self._lock:
            self._networks[key] = network
            self._networks.move_to_end(key)
            while len(self._networks) > self.max_networks:
                self._networks.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def stats(self) -> dict:
        """JSON-ready counters (for bench reports): ``hits``,
        ``misses`` and ``hit_rate`` over every lookup, and
        ``by_kind``, the hits and misses of each key kind."""
        with self._lock:
            return {
                "entries": len(self._values),
                "networks": len(self._networks),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
                "by_kind": {
                    kind: {"hits": hits, "misses": misses}
                    for kind, (hits, misses) in sorted(self._by_kind.items())
                },
                "network_hits": self.network_hits,
                "network_misses": self.network_misses,
            }

    def clear(self) -> None:
        with self._lock:
            self._values.clear()
            self._networks.clear()


_shared_bound_cache: BoundCache | None = None
_shared_bound_cache_lock = threading.Lock()


def shared_bound_cache() -> BoundCache:
    """The process-wide bound cache, created on first use."""
    global _shared_bound_cache
    with _shared_bound_cache_lock:
        if _shared_bound_cache is None:
            _shared_bound_cache = BoundCache()
        return _shared_bound_cache


@dataclass(frozen=True)
class BatchQuery:
    """One sk-NN query in a batch.

    ``budget`` optionally caps this query's resources
    (:class:`~repro.core.budget.QueryBudget`); it overrides the
    executor's batch-wide default when both are given.
    """

    vertex: int
    k: int
    method: str = "mr3"
    step_length: int = 1
    budget: QueryBudget | None = None

    @classmethod
    def of(cls, spec) -> "BatchQuery":
        """Coerce ``(vertex, k)`` tuples / dicts / BatchQuery."""
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, dict):
            return cls(**spec)
        try:
            vertex, k = spec
        except (TypeError, ValueError):
            raise QueryError(
                f"batch query spec {spec!r} is not a BatchQuery, "
                "(vertex, k) pair or kwargs dict"
            ) from None
        return cls(vertex=int(vertex), k=int(k))


@dataclass(frozen=True)
class BatchError:
    """One failed (or unadmitted) query in a batch.

    The batch never aborts on a member failure: the slot in
    ``BatchReport.results`` holds ``None`` and this record explains
    why.  ``skipped`` marks queries refused admission because the
    engine's health read ``failed`` (they never ran).
    """

    index: int
    vertex: int
    k: int
    kind: str  # exception class name, or "EngineUnhealthy" for skipped
    message: str
    skipped: bool = False


@dataclass
class BatchReport:
    """Outcome of one executor run.

    ``results`` is in submission order regardless of worker
    interleaving; ``latencies`` are per-query wall seconds.  A query
    that failed (or was refused admission by the health gate) leaves
    ``None`` in its ``results`` slot and a :class:`BatchError` in
    ``errors`` — per-query faults are isolated, the batch always
    completes.
    """

    results: list
    latencies: list[float]
    wall_seconds: float
    workers: int
    cache_stats: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    # Engine health snapshot (repro.core.health.EngineHealth.as_dict)
    # taken when the batch finished; {} for engines without storage.
    engine_health: dict = field(default_factory=dict)

    @property
    def ok_results(self) -> list:
        """The successful results only (failed slots filtered out)."""
        return [r for r in self.results if r is not None]

    @property
    def throughput_qps(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return len(self.results) / self.wall_seconds

    def latency_quantile(self, q: float) -> float:
        """Exact empirical q-quantile of the per-query latencies."""
        if not 0.0 <= q <= 1.0:
            raise QueryError(f"quantile must be in [0, 1], got {q}")
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def summary(self) -> dict:
        """JSON-ready roll-up (throughput, latency percentiles, I/O)."""
        ok = self.ok_results
        return {
            "queries": len(self.results),
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "throughput_qps": self.throughput_qps,
            "latency_p50": self.latency_quantile(0.50),
            "latency_p95": self.latency_quantile(0.95),
            "latency_p99": self.latency_quantile(0.99),
            "logical_reads": sum(r.metrics.logical_reads for r in ok),
            "pages_accessed": sum(r.metrics.pages_accessed for r in ok),
            "bound_cache": dict(self.cache_stats),
            "failed": sum(1 for e in self.errors if not e.skipped),
            "skipped": sum(1 for e in self.errors if e.skipped),
            "degraded": sum(1 for r in ok if r.degraded),
            "degraded_budget": sum(
                1 for r in ok
                if r.degraded and getattr(r, "degraded_reason", None) == "budget"
            ),
            "degraded_storage": sum(
                1 for r in ok
                if r.degraded and getattr(r, "degraded_reason", None) == "storage"
            ),
            "engine_health": dict(self.engine_health),
        }


class BatchQueryExecutor:
    """Runs many sk-NN queries concurrently over one engine.

    Parameters
    ----------
    engine:
        A built :class:`~repro.core.engine.SurfaceKNNEngine`.  On
        construction the executor installs a
        :class:`~repro.storage.stats.ThreadLocalIOStatistics` router
        on the engine (idempotent), so worker threads account page
        I/O without cross-talk; the engine keeps working normally for
        sequential use afterwards.
    workers:
        Thread-pool width.  ``workers=1`` executes inline and is
        bit-identical to calling ``engine.query`` in a loop.
    bound_cache:
        Shared :class:`BoundCache`; default a fresh private cache.
        Pass :func:`shared_bound_cache` to share one cache across
        executors.
    cold_cache:
        Forwarded to ``engine.query`` (default True, the paper's
        per-query cold-start measurement).
    budget:
        Batch-wide default :class:`~repro.core.budget.QueryBudget`
        applied to every query (a spec's own ``budget`` wins).
    obs:
        Batch-level :class:`~repro.obs.ObsContext`.  Every query runs
        under a fresh per-query **child** context (so concurrent
        queries never share mutable telemetry), which is merged back
        into this context when the query finishes — counters add,
        profiles aggregate.  Defaults to the context active at
        construction time (the process default context when none is
        active, preserving the old into-the-global-registry
        behaviour).
        Pass a profiling context (``ObsContext(profiling=True)``) to
        collect per-query phase profiles for the whole batch, and a
        tracing one (``ObsContext(tracing=True)``) to give every query
        its own span tree (``result.root_span``).
    """

    def __init__(
        self,
        engine,
        workers: int = 1,
        bound_cache: BoundCache | None = None,
        cold_cache: bool = True,
        budget: QueryBudget | None = None,
        obs: ObsContext | None = None,
    ):
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        self.engine = engine
        self.workers = workers
        self.cold_cache = cold_cache
        self.budget = budget
        self.obs = obs if obs is not None else current()
        self.bound_cache = (
            bound_cache if bound_cache is not None else BoundCache()
        )
        self._install_thread_local_stats()

    def _install_thread_local_stats(self) -> None:
        """Swap the engine's IOStatistics for a per-thread router."""
        if isinstance(self.engine.stats, ThreadLocalIOStatistics):
            return
        router = ThreadLocalIOStatistics()
        self.engine.stats = router
        if self.engine.pages is not None:
            self.engine.pages.stats = router

    # ------------------------------------------------------------------

    def _run_one(self, item):
        """Run one spec with fault isolation.

        Returns ``(result_or_None, latency, BatchError_or_None)``.  A
        library failure (:class:`~repro.errors.SurfKnnError`) becomes
        an error record instead of poisoning the pool; programming
        errors still propagate.  While the engine's health reads
        ``failed`` the spec is refused without running.
        """
        index, spec = item
        health = getattr(self.engine, "health", None)
        if health is not None:
            state = health.state()
            if state == "failed":
                self.obs.registry.counter(
                    "batch.health_rejections_total"
                ).add(1)
                return None, 0.0, BatchError(
                    index=index, vertex=spec.vertex, k=spec.k,
                    kind="EngineUnhealthy",
                    message=(
                        f"engine health is failed ({health.cause}); "
                        "query not admitted"
                    ),
                    skipped=True,
                )
            if state == "degraded":
                self.obs.registry.counter(
                    "batch.degraded_admissions_total"
                ).add(1)
        # Each query gets its own child context: concurrent queries
        # never share mutable telemetry (every query gets its own
        # frame stack, so span trees never mix), and
        # the finished child is merged back into the batch context
        # below (counters add, profiles aggregate) — so batch totals
        # still reconcile.
        ctx = self.obs.child(f"q{index}")
        start = time.perf_counter()
        try:
            result = self.engine.query(
                spec.vertex,
                spec.k,
                method=spec.method,
                step_length=spec.step_length,
                cold_cache=self.cold_cache,
                obs=ctx,
                bound_cache=self.bound_cache,
                budget=spec.budget if spec.budget is not None else self.budget,
            )
        except SurfKnnError as exc:
            latency = time.perf_counter() - start
            self.obs.absorb(ctx)
            self.obs.registry.counter("batch.query_failures_total").add(1)
            return None, latency, BatchError(
                index=index, vertex=spec.vertex, k=spec.k,
                kind=type(exc).__name__, message=str(exc),
            )
        latency = time.perf_counter() - start
        self.obs.absorb(ctx)
        return result, latency, None

    def run(self, queries) -> BatchReport:
        """Execute the batch; results come back in submission order."""
        specs = [BatchQuery.of(q) for q in queries]
        start = time.perf_counter()
        items = list(enumerate(specs))
        if self.workers == 1 or len(specs) <= 1:
            outcomes = [self._run_one(item) for item in items]
        else:
            with ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="sknn-batch"
            ) as pool:
                outcomes = list(pool.map(self._run_one, items))
        wall = time.perf_counter() - start
        health = getattr(self.engine, "health", None)
        return BatchReport(
            results=[r for r, _t, _e in outcomes],
            latencies=[t for _r, t, _e in outcomes],
            wall_seconds=wall,
            workers=self.workers,
            cache_stats=self.bound_cache.stats(),
            errors=[e for _r, _t, e in outcomes if e is not None],
            engine_health=health.as_dict() if health is not None else {},
        )

    def run_vertices(self, vertices, k: int, **spec_kwargs) -> BatchReport:
        """Convenience: same ``k`` (and options) for many vertices."""
        return self.run(
            [BatchQuery(vertex=int(v), k=k, **spec_kwargs) for v in vertices]
        )
