"""I/O statistics and the simulated disk cost model."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

#: Well-known page classes; free-form strings are also accepted.
PAGE_CLASS_DMTM = "dmtm"
PAGE_CLASS_MSDN = "msdn"
PAGE_CLASS_OTHER = "other"


@dataclass
class IOStatistics:
    """Counters maintained by a :class:`repro.storage.PageManager`.

    ``physical_reads`` is the paper's "pages accessed": logical page
    requests that missed the buffer pool and had to be fetched.  The
    ``*_by_class`` dicts attribute the same counts to the structure
    the page belongs to (dmtm / msdn / other), so a query's
    page bill can be split per structure.
    """

    logical_reads: int = 0
    physical_reads: int = 0
    pages_written: int = 0
    logical_by_class: dict = field(default_factory=dict)
    physical_by_class: dict = field(default_factory=dict)

    def record_write(self) -> None:
        """Account one page allocation."""
        self.pages_written += 1

    def record_read(self, page_class: str, physical: bool) -> None:
        """Account one logical read (and its miss, when physical)."""
        self.logical_reads += 1
        self.logical_by_class[page_class] = (
            self.logical_by_class.get(page_class, 0) + 1
        )
        if physical:
            self.physical_reads += 1
            self.physical_by_class[page_class] = (
                self.physical_by_class.get(page_class, 0) + 1
            )

    def record_reads(self, logical: dict, physical: dict) -> None:
        """Account a run of reads at once: ``logical`` and
        ``physical`` map page class to read count (the run's misses
        are also in ``logical``).  Equal to one :meth:`record_read`
        per page, in order."""
        for counts, by_class in (
            (logical, self.logical_by_class),
            (physical, self.physical_by_class),
        ):
            for page_class, count in counts.items():
                by_class[page_class] = by_class.get(page_class, 0) + count
        self.logical_reads += sum(logical.values())
        self.physical_reads += sum(physical.values())

    @property
    def buffer_hit_rate(self) -> float:
        """Fraction of logical reads served from the buffer pool."""
        if self.logical_reads == 0:
            return 0.0
        return 1.0 - self.physical_reads / self.logical_reads

    def reset(self) -> None:
        self.logical_reads = 0
        self.physical_reads = 0
        self.pages_written = 0
        self.logical_by_class = {}
        self.physical_by_class = {}

    def snapshot(self) -> "IOStatistics":
        return IOStatistics(
            logical_reads=self.logical_reads,
            physical_reads=self.physical_reads,
            pages_written=self.pages_written,
            logical_by_class=dict(self.logical_by_class),
            physical_by_class=dict(self.physical_by_class),
        )

    def delta_since(self, earlier: "IOStatistics") -> "IOStatistics":
        def diff(now: dict, then: dict) -> dict:
            out = {}
            for cls, count in now.items():
                d = count - then.get(cls, 0)
                if d:
                    out[cls] = d
            return out

        return IOStatistics(
            logical_reads=self.logical_reads - earlier.logical_reads,
            physical_reads=self.physical_reads - earlier.physical_reads,
            pages_written=self.pages_written - earlier.pages_written,
            logical_by_class=diff(
                self.logical_by_class, earlier.logical_by_class
            ),
            physical_by_class=diff(
                self.physical_by_class, earlier.physical_by_class
            ),
        )


class ThreadLocalIOStatistics:
    """An :class:`IOStatistics` facade keeping one instance per thread.

    Concurrent queries sharing one :class:`~repro.storage.pages.PageManager`
    would trample each other's ``snapshot()``/``delta_since()`` windows
    on a single counter set.  This router gives every thread its own
    private ``IOStatistics``: ``record_read``/``record_write``/
    ``snapshot``/``delta_since`` all act on the calling thread's
    instance, so a worker's per-query delta only ever contains its own
    page traffic.  :meth:`aggregate` sums every thread's counters into
    one global view — by construction the sum of all per-query deltas
    (plus whatever ran outside a delta window) equals the aggregate,
    the invariant the batch stress tests assert.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._parts: list[IOStatistics] = []

    def _stats(self) -> IOStatistics:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = IOStatistics()
            with self._lock:
                self._parts.append(stats)
        return stats

    # -- accounting (thread-local) -------------------------------------

    def record_read(self, page_class: str, physical: bool) -> None:
        self._stats().record_read(page_class, physical)

    def record_reads(self, logical: dict, physical: dict) -> None:
        self._stats().record_reads(logical, physical)

    def record_write(self) -> None:
        self._stats().record_write()

    def snapshot(self) -> IOStatistics:
        """Snapshot of the *calling thread's* counters."""
        return self._stats().snapshot()

    def delta_since(self, earlier: IOStatistics) -> IOStatistics:
        """Delta of the *calling thread's* counters."""
        return self._stats().delta_since(earlier)

    # -- global view ----------------------------------------------------

    def aggregate(self) -> IOStatistics:
        """Sum of every thread's counters (one merged IOStatistics)."""
        with self._lock:
            parts = list(self._parts)
        total = IOStatistics()
        for part in parts:
            total.logical_reads += part.logical_reads
            total.physical_reads += part.physical_reads
            total.pages_written += part.pages_written
            for cls, count in part.logical_by_class.items():
                total.logical_by_class[cls] = (
                    total.logical_by_class.get(cls, 0) + count
                )
            for cls, count in part.physical_by_class.items():
                total.physical_by_class[cls] = (
                    total.physical_by_class.get(cls, 0) + count
                )
        return total

    @property
    def logical_reads(self) -> int:
        return self.aggregate().logical_reads

    @property
    def physical_reads(self) -> int:
        return self.aggregate().physical_reads

    @property
    def pages_written(self) -> int:
        return self.aggregate().pages_written

    @property
    def logical_by_class(self) -> dict:
        return self.aggregate().logical_by_class

    @property
    def physical_by_class(self) -> dict:
        return self.aggregate().physical_by_class

    @property
    def buffer_hit_rate(self) -> float:
        return self.aggregate().buffer_hit_rate

    def reset(self) -> None:
        with self._lock:
            parts = list(self._parts)
        for part in parts:
            part.reset()


@dataclass(frozen=True)
class DiskModel:
    """Converts page counts into simulated I/O seconds.

    The default (0.5 ms per page) models the amortized cost of the
    multiblock sequential reads a *clustered* B+-tree range scan
    issues on a 2006-era disk (a random single-page seek would be
    ~8 ms, but both DMTM and MSDN fetches are contiguous key-range /
    region scans over z-order-clustered pages).  Results are reported
    both as raw page counts (hardware-independent, Figs 9-11 right
    column) and as simulated seconds folded into total time (Figs
    10-11 left column); pick your own constant via
    ``DiskModel(seconds_per_page=...)`` to shift regimes.
    """

    seconds_per_page: float = 0.0005

    def io_seconds(self, stats: IOStatistics) -> float:
        return stats.physical_reads * self.seconds_per_page
