"""Fixed-size pages behind a thread-safe LRU buffer pool.

A page is an id with a class and a byte length: the paper's *pages
accessed* observable counts page fetches that miss the buffer, and no
query decodes what a page holds, so the "disk" is a
:class:`SimulatedDisk` of allocated ids and their lengths.  Reads go
through a :class:`BufferPool` and misses increment
``IOStatistics.physical_reads``.  Pages are read in runs
(:meth:`PageManager.read_pages`): one call per structure access,
observably the same as one read per page.

The buffer pool is a separate object so it can be shared: by default
every :class:`PageManager` owns a private pool sized by its
``buffer_pages`` (the original per-engine behaviour), but any number
of managers — and any number of threads — may account into one
:class:`BufferPool` passed as ``buffer=`` (the sharded engine's
windows share one this way).  Pool entries are keyed by
``(owner, page_id)`` so managers sharing a pool never alias each
other's page ids.

Resilience: a read attempt under a fault injector may fail
transiently or come back corrupt.  Corruption is a drawn fault, not
flipped bytes: the injector draws it per attempt and the manager
reports it as the CRC mismatch a checked page would show.  Failed
attempts are retried under a
:class:`~repro.storage.faults.RetryPolicy`, and
:class:`~repro.errors.PageReadError` /
:class:`~repro.errors.PageCorruptionError` surface only once the
policy is exhausted.  Retries are counters, not frames: the manager's
``FaultStats.retries_total`` and the active context's
``storage.retries_total`` count them, and the injector's fault log
names each page and attempt (a clean read moves none).  With no
:class:`~repro.storage.faults.FaultInjector` attached the read path
is behaviourally identical to the pre-fault code: no attempt fails
and no retry/fault counter moves.
"""

from __future__ import annotations

import itertools
import threading
import time
from bisect import bisect_right
from collections import Counter, OrderedDict

from repro.errors import (
    PageCorruptionError,
    PageReadError,
    QuarantinedPageError,
    StorageError,
)
from repro.obs.context import active_registry, current
from repro.storage.faults import (
    FAULT_CORRUPT,
    FAULT_TRANSIENT,
    QUARANTINE_BLOCKED,
    QUARANTINE_CLEAR,
    QUARANTINE_PROBE,
    FaultInjector,
    FaultStats,
    PageQuarantine,
    RetryPolicy,
    _TransientFault,
)
from repro.storage.stats import PAGE_CLASS_OTHER, IOStatistics

DEFAULT_PAGE_SIZE = 8192

_owner_tokens = itertools.count()


class SimulatedDisk:
    """The allocated page ids behind a :class:`PageManager`, each with
    its byte length, and an optional fault injector on the read path.

    A read attempt asks the injector: it may raise a transient fault
    (the manager retries), report the attempt corrupt (the manager
    treats it as a failed CRC check) or report a simulated latency
    spike alongside a clean read.  Without an injector, every attempt
    on an allocated id is clean with zero latency — the exact
    pre-fault behaviour.
    """

    def __init__(self, fault_injector: FaultInjector | None = None):
        self.fault_injector = fault_injector
        self._lengths: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._lengths)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._lengths

    def add(self, page_id: int, length: int) -> None:
        """Record an allocated page of ``length`` payload bytes."""
        self._lengths[page_id] = length

    def length(self, page_id: int) -> int:
        """The payload length of an allocated page."""
        length = self._lengths.get(page_id)
        if length is None:
            raise StorageError(f"page {page_id} does not exist")
        return length

    def read(self, page_id: int) -> tuple[bool, float]:
        """One read attempt: (corrupt, simulated extra seconds).

        Raises :class:`~repro.errors.StorageError` for a page that was
        never allocated, or the injector's transient marker for an
        attempt the schedule failed.
        """
        length = self.length(page_id)
        if self.fault_injector is None:
            return False, 0.0
        return self.fault_injector.on_read(page_id, length)


class BufferPool:
    """A thread-safe LRU cache of page ids, shareable across managers.

    Entries are keyed by ``(owner, page_id)``; each
    :class:`PageManager` passes its own owner token, so several
    managers (one per engine, say) can share one pool without page-id
    collisions.  All operations hold the pool's lock, so concurrent
    readers from a thread pool see a consistent LRU;
    :meth:`PageManager.read_pages` holds it for a whole run and
    probes, inserts and evicts on the entries directly, exactly as
    :meth:`get` and :meth:`put` would.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise StorageError("buffer pool capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple, None] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, owner: int, page_id: int) -> bool:
        """Whether the page is cached; a hit is refreshed to
        most-recently-used."""
        key = (owner, page_id)
        with self._lock:
            if key not in self._entries:
                return False
            self._entries.move_to_end(key)
            return True

    def put(self, owner: int, page_id: int) -> None:
        """Insert a page, evicting least-recently-used beyond capacity."""
        with self._lock:
            self._entries[(owner, page_id)] = None
            self._entries.move_to_end((owner, page_id))
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def drop(self, owner: int | None = None) -> None:
        """Evict one owner's pages (or everything when owner is None)."""
        with self._lock:
            if owner is None:
                self._entries.clear()
                return
            for key in [k for k in self._entries if k[0] == owner]:
                del self._entries[key]


class PageManager:
    """Page allocator + buffer pool + I/O accounting.

    Parameters
    ----------
    page_size:
        Capacity of each page in bytes (Oracle-style 8 KiB default).
    buffer_pages:
        Capacity of the private pool built when ``buffer`` is omitted.
    stats:
        Optional shared :class:`IOStatistics` (several stores can
        account into one counter set, as one database would).
    buffer:
        Optional :class:`BufferPool` to cache through — pass one pool
        to several managers to share one LRU across engines and
        threads; by default a private pool of ``buffer_pages`` is
        created (the classic per-engine buffer).
    fault_injector:
        Optional :class:`~repro.storage.faults.FaultInjector` wired
        into the simulated disk's read path.
    retry_policy:
        :class:`~repro.storage.faults.RetryPolicy` governing how
        transient faults and detected corruption are retried before a
        :class:`~repro.errors.PageReadError` /
        :class:`~repro.errors.PageCorruptionError` surfaces.
    quarantine:
        Optional :class:`~repro.storage.faults.PageQuarantine`; by
        default each manager owns a private one.  A page whose read
        exhausts the retry policy is quarantined: later buffer misses
        for it fail fast with
        :class:`~repro.errors.QuarantinedPageError` instead of
        re-running the retry storm, until a probation read readmits
        it.

    Reads are guarded by a per-manager lock (held for a whole run)
    so the buffer probe and the hit/miss accounting are atomic with
    respect to other threads using this manager.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int = 256,
        stats: IOStatistics | None = None,
        buffer: BufferPool | None = None,
        fault_injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        quarantine: PageQuarantine | None = None,
    ):
        if page_size < 64:
            raise StorageError("page_size must be at least 64 bytes")
        if buffer_pages < 1:
            raise StorageError("buffer_pages must be >= 1")
        self.page_size = page_size
        self.buffer_pages = buffer_pages
        self.stats = stats if stats is not None else IOStatistics()
        self._buffer = buffer if buffer is not None else BufferPool(buffer_pages)
        self._owner = next(_owner_tokens)
        self._lock = threading.RLock()
        self._disk = SimulatedDisk(fault_injector)
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.quarantine = (
            quarantine if quarantine is not None else PageQuarantine()
        )
        self.fault_stats = FaultStats()
        # Page classes as allocation spans: ids are handed out in
        # order, so span i holds ids _span_start[i] up to the next
        # span's start (or _next_id), all of class _span_class[i].
        self._span_start: list[int] = []
        self._span_class: list[str] = []
        self._next_id = 0

    @property
    def num_pages(self) -> int:
        return len(self._disk)

    @property
    def buffer(self) -> BufferPool:
        """The pool this manager caches through (possibly shared)."""
        return self._buffer

    @property
    def fault_injector(self) -> FaultInjector | None:
        """The injector on the simulated disk's read path, if any."""
        return self._disk.fault_injector

    @fault_injector.setter
    def fault_injector(self, injector: FaultInjector | None) -> None:
        self._disk.fault_injector = injector

    def allocate(self, length: int, page_class: str = PAGE_CLASS_OTHER) -> int:
        """Allocate a new page of ``length`` payload bytes; returns its
        page id.

        ``page_class`` labels the structure the page belongs to
        (dmtm / msdn / objects / index) so reads can be attributed
        per structure in :class:`IOStatistics`; consecutive pages of
        one class form one class span.
        """
        if not 0 <= length <= self.page_size:
            raise StorageError(
                f"page payload of {length} bytes does not fit page size "
                f"{self.page_size}"
            )
        with self._lock:
            page_id = self._next_id
            self._disk.add(page_id, length)
            if not self._span_class or self._span_class[-1] != page_class:
                self._span_start.append(page_id)
                self._span_class.append(page_class)
            self._next_id = page_id + 1
            self.stats.record_write()
        return page_id

    def page_length(self, page_id: int) -> int:
        """The payload length a page was allocated with."""
        return self._disk.length(page_id)

    def page_class_of(self, page_id: int) -> str:
        """The class a page was allocated under (``other`` for an id
        never allocated)."""
        span = self._span_of(page_id)
        return PAGE_CLASS_OTHER if span is None else self._span_class[span]

    def _span_of(self, page_id: int) -> int | None:
        """The index of the class span holding ``page_id``, None for an
        id never allocated: one bisect over the span starts."""
        if not 0 <= page_id < self._next_id:
            return None
        return bisect_right(self._span_start, page_id) - 1

    def read(self, page_id: int) -> None:
        """Read one page through the buffer pool: the one-page run of
        :meth:`read_pages`."""
        self.read_pages((page_id,))

    def read_pages(self, page_ids) -> None:
        """Read a *run* of pages through the buffer pool, in order.

        ``page_ids`` is an ordered sequence (repeats allowed).  The run
        is observably one read per page: each page is probed in the
        pool (a hit refreshes its LRU position), and a miss passes the
        quarantine gate, is fetched with retries, then inserted,
        evicting least-recently-used pages beyond capacity.  A read
        charges the pool and the statistics; it hands back nothing,
        since no caller decodes a page.  What a run pays once instead
        of per page is the context lookup, the lock acquisitions, the
        quarantine gate while the quarantine is empty, and the
        statistics update — one per-class flush, which also runs when a
        read raises part-way (the pages before it are counted, the
        failing one is not).  With profiling on, each miss bills one
        call and its reads to the ``page-io`` phase under the caller's
        frame, and hits count ``logical_reads`` in the caller's phase,
        as single reads do.

        While the disk has no fault injector and the quarantine is
        empty, a miss is *clean*: it is fetched right here, one
        dictionary probe per page for the id's allocation.  A clean
        miss of an id never allocated goes the way of every other miss,
        :meth:`_read_miss`, which raises the error a faulted read of
        it raises.  The statistics flush bills a run inside one class
        span with one update per counter (:meth:`_flush_run`).

        Lock order: the manager lock, then the pool lock (held for the
        whole run), then the quarantine's or the injector's lock.
        Holding both for the run keeps hit/miss accounting exact under
        threads (``logical_reads == hits + physical_reads``).
        """
        obs = current()
        owner = self._owner
        pool = self._buffer
        entries = pool._entries
        quarantine = self.quarantine
        allocated = self._disk._lengths
        profiling = obs.profiling
        page_io = None  # the run's page-io node, looked up on its first miss
        done = 0
        missed: list[int] = []
        with self._lock, pool._lock:
            # Only this manager admits its own pages (an admission
            # ends the run by raising) or readmits them, so a
            # quarantine that is empty now holds none of them for the
            # whole run, and the gate of an absent entry is a no-op.
            gated = len(quarantine) > 0
            clean = not gated and self._disk.fault_injector is None
            try:
                for page_id in page_ids:
                    key = (owner, page_id)
                    if key in entries:
                        entries.move_to_end(key)
                    else:
                        if clean and profiling and page_io is None:
                            page_io = obs.leaf("page-io")
                            # No profiled frame is open: every miss
                            # opens a phase of its own (_read_miss).
                            clean = page_io is not None
                        if not clean or page_id not in allocated:
                            self._read_miss(page_id, gated, obs)
                        elif profiling:
                            # A clean fetch is one dictionary probe:
                            # it bills its call and reads, no seconds.
                            page_io.calls += 1
                            page_io.count("logical_reads", 1)
                            page_io.count("physical_reads", 1)
                            page_io.count(
                                "physical." + self.page_class_of(page_id), 1
                            )
                        missed.append(page_id)
                        entries[key] = None
                        while len(entries) > pool.capacity:
                            entries.popitem(last=False)
                    done += 1
            finally:
                if done:
                    self._flush_run(page_ids, done, missed, obs)

    def _read_miss(self, page_id: int, gated: bool, obs) -> None:
        """A buffer miss of :meth:`read_pages` that is not read
        inline: every miss while a fault injector is attached or the
        quarantine holds pages, and a clean miss of an id never
        allocated.  The quarantine gate (while ``gated``), then the
        verified fetch with retries (:meth:`_fetch_verified`).

        A buffer miss is the query's page-I/O moment: the physical
        fetch (plus retry machinery) is billed to the "page-io"
        phase, with per-class read attribution.  Nothing inside a
        fetch opens a frame or counts, so under an open frame the
        miss bills the phase's node directly (:meth:`ObsContext.leaf`);
        a failed fetch bills its time and call but no reads.  Page
        reads count on profile frames only: about 1,570 misses per
        knnbench ``rugged_knn`` query are too hot for registry
        counters."""
        verdict = self._gate(page_id) if gated else QUARANTINE_CLEAR
        page_io = obs.leaf("page-io") if obs.profiling else None
        if page_io is not None:
            t0 = time.perf_counter()
            try:
                self._fetch_verified(page_id, verdict)
            finally:
                page_io.seconds += time.perf_counter() - t0
                page_io.calls += 1
            page_io.count("logical_reads", 1)
            page_io.count("physical_reads", 1)
            page_io.count("physical." + self.page_class_of(page_id), 1)
        elif obs.profiling:
            # No profiled frame is open: the miss is a profile of its
            # own (or of nothing, under ObsContext.nested_under).
            with obs.phase("page-io"):
                self._fetch_verified(page_id, verdict)
                obs.tally("logical_reads")
                obs.tally("physical_reads")
                obs.tally("physical." + self.page_class_of(page_id))
        else:
            self._fetch_verified(page_id, verdict)
        if verdict == QUARANTINE_PROBE:
            self.quarantine.probe_succeeded(self._owner, page_id)
            self.fault_stats.pages_readmitted_total += 1
            active_registry().counter("storage.pages_readmitted_total").add(1)

    def _gate(self, page_id: int) -> str:
        """The quarantine's verdict on a miss.

        A buffered page reads clean, so the quarantine only gates
        disk access: known-bad pages fail fast here instead of
        re-running the retry storm, except for the periodic probation
        read that checks whether the page has healed."""
        verdict = self.quarantine.gate(self._owner, page_id)
        if verdict == QUARANTINE_BLOCKED:
            self.fault_stats.quarantine_fastfails_total += 1
            active_registry().counter("storage.quarantine_fastfails_total").add(1)
            reason = self.quarantine.reason_of(self._owner, page_id)
            raise QuarantinedPageError(
                f"page {page_id} is quarantined ({reason}); read "
                "refused without touching the disk"
            )
        if verdict == QUARANTINE_PROBE:
            self.fault_stats.quarantine_probes_total += 1
            active_registry().counter("storage.quarantine_probes_total").add(1)
        return verdict

    def _flush_run(self, page_ids, done: int, missed: list, obs) -> None:
        """Account the first ``done`` pages of a run in one per-class
        update; ``missed`` lists the ones fetched from disk.  A run
        inside one class span (every production run) bills its class
        once per counter; only a run that straddles spans is classified
        page by page.  Hits bill ``logical_reads`` to the caller's
        frame (misses did so inside their ``page-io`` phase)."""
        run = page_ids[:done]
        span = self._span_of(min(run))
        # Spans are id intervals, so a run whose least and greatest ids
        # share one lies inside it.
        if span is not None and span == self._span_of(max(run)):
            page_class = self._span_class[span]
            logical = {page_class: done}
            physical = {page_class: len(missed)} if missed else {}
        else:
            logical = Counter(map(self.page_class_of, run))
            physical = Counter(map(self.page_class_of, missed))
        self.stats.record_reads(logical, physical)
        hits = done - len(missed)
        if hits:
            obs.tally("logical_reads", hits)

    def _fetch_verified(self, page_id: int, verdict: str) -> None:
        """Fetch a page from the simulated disk, retrying transient
        faults and corrupt attempts (each reported as a failed CRC
        check) under the retry policy.

        Once attempts are exhausted the page is quarantined (a failed
        probe instead keeps it there with a doubled cooldown) and the
        *last* failure raises, so a final corrupted attempt surfaces
        as :class:`PageCorruptionError`, a final transient as
        :class:`PageReadError`."""
        policy = self.retry_policy
        attempt = 1
        while True:
            try:
                corrupt, latency = self._disk.read(page_id)
            except _TransientFault as exc:
                self._bill_latency(exc.latency)
                self.fault_stats.transient_faults_total += 1
                active_registry().counter("storage.transient_faults_total").add(1)
                error: StorageError = PageReadError(f"page {page_id}: {exc}")
            else:
                self._bill_latency(latency)
                if not corrupt:
                    return
                self.fault_stats.corruptions_total += 1
                active_registry().counter("storage.corruptions_total").add(1)
                error = PageCorruptionError(f"page {page_id} failed its CRC check")
            if attempt == policy.max_attempts:
                break
            backoff = policy.backoff_seconds(attempt)
            attempt += 1
            self.fault_stats.retries_total += 1
            self.fault_stats.backoff_seconds_total += backoff
            registry = active_registry()
            registry.counter("storage.retries_total").add(1)
            registry.counter("storage.retry_backoff_seconds").add(backoff)
        self.fault_stats.reads_failed_total += 1
        active_registry().counter("storage.read_failures_total").add(1)
        if verdict == QUARANTINE_PROBE:
            self.quarantine.probe_failed(self._owner, page_id)
        else:
            self.quarantine.admit(
                self._owner,
                page_id,
                reason=(
                    FAULT_CORRUPT
                    if isinstance(error, PageCorruptionError)
                    else FAULT_TRANSIENT
                ),
                page_class=self.page_class_of(page_id),
            )
            self.fault_stats.pages_quarantined_total += 1
            active_registry().counter("storage.pages_quarantined_total").add(1)
        raise error

    def _bill_latency(self, latency: float) -> None:
        """Bill the simulated latency one read attempt drew, whatever
        became of the attempt."""
        if latency:
            self.fault_stats.latency_events_total += 1
            self.fault_stats.latency_seconds_total += latency
            registry = active_registry()
            registry.counter("storage.fault_latency_events_total").add(1)
            registry.counter("storage.fault_latency_seconds").add(latency)

    def drop_buffer(self) -> None:
        """Evict this manager's pages (cold-cache experiment runs)."""
        self._buffer.drop(self._owner)
