"""Threaded hammer tests for the storage layer.

The bug class under test: ``PageManager.read`` used to probe the
buffer and bump hit/miss counters without a lock, so two threads
could interleave probe and insert and the accounting invariant

    logical_reads == buffer hits + physical_reads

drifted.  These tests hammer one manager (and one shared
:class:`BufferPool`) from many threads, with single reads and runs
(:meth:`PageManager.read_pages`) interleaved, and assert the totals
stay exact.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import StorageError
from repro.obs.context import ObsContext
from repro.storage.pages import BufferPool, PageManager
from repro.storage.stats import IOStatistics, ThreadLocalIOStatistics

THREADS = 8
READS_PER_THREAD = 400
#: Bound on any one thread; a deadlock fails the test, not the run.
JOIN_TIMEOUT_S = 60.0


def _walk(page_ids, reads: int, seed: int) -> list:
    """Deterministic per-thread page sequence (no RNG shared state).

    Each page appears twice in a row, so one thread alone already
    produces both misses (a stride-31 walk over more pages than the
    buffer holds) and hits (the repeat) — the accounting asserts do
    not depend on how the scheduler interleaves threads."""
    n = len(page_ids)
    return [page_ids[(seed * 7919 + (i // 2) * 31) % n] for i in range(reads)]


def _hammer(manager: PageManager, page_ids, reads: int, seed: int):
    """Read :func:`_walk` in order, alternating one single read with
    one run of the next 3-6 pages."""
    walk = _walk(page_ids, reads, seed)
    i = turn = 0
    while i < reads:
        if turn % 2 == 0:
            manager.read(walk[i])
            i += 1
        else:
            size = 3 + (turn // 2) % 4
            manager.read_pages(walk[i:i + size])
            i += size
        turn += 1


def _run_threads(threads) -> None:
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT_S)
    assert not any(t.is_alive() for t in threads), "a reader hung"


class TestPageManagerHammer:
    def test_hit_miss_accounting_is_atomic(self):
        manager = PageManager(page_size=256, buffer_pages=4)
        page_ids = [
            manager.allocate(32, page_class="dmtm")
            for i in range(16)
        ]
        barrier = threading.Barrier(THREADS)

        def worker(seed: int):
            barrier.wait()
            _hammer(manager, page_ids, READS_PER_THREAD, seed)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(worker, range(THREADS)))

        stats = manager.stats
        total = THREADS * READS_PER_THREAD
        assert stats.logical_reads == total
        # Buffer (4) < pages (16): both hits and misses must occur,
        # and every page was cold at least once.
        assert len(page_ids) <= stats.physical_reads < total
        hits = stats.logical_reads - stats.physical_reads
        assert hits > 0
        assert stats.logical_by_class == {"dmtm": total}
        assert sum(stats.physical_by_class.values()) == stats.physical_reads

    def test_reads_bill_their_page_under_contention(self):
        """Eight pages, each its own class span: under contention every
        read is billed to the page it asked for."""
        manager = PageManager(page_size=256, buffer_pages=2)
        ids = [manager.allocate(64, page_class=f"c{i}") for i in range(8)]
        errors: list = []

        def worker(seed: int):
            try:
                for i in range(200):
                    manager.read(ids[(seed + i) % len(ids)])
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(THREADS)
        ]
        _run_threads(threads)
        assert errors == []
        # Worker s reads page (s + i) % 8 for i < 200: every page
        # 200 times over the eight workers.
        assert manager.stats.logical_by_class == {
            f"c{i}": THREADS * 200 // len(ids) for i in range(8)
        }

    def test_thread_local_router_sums_across_threads(self):
        router = ThreadLocalIOStatistics()
        manager = PageManager(page_size=256, buffer_pages=4, stats=router)
        page_ids = [manager.allocate(16) for i in range(8)]
        barrier = threading.Barrier(4)

        def worker(seed: int):
            barrier.wait()
            _hammer(manager, page_ids, 100, seed)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(worker, range(4)))
        assert router.logical_reads == 400
        assert router.aggregate().logical_reads == 400


class TestSharedBufferPool:
    def test_owners_do_not_alias_page_ids(self):
        """Two managers over one pool: same page ids, concurrent
        readers — a page one manager cached is never a hit for the
        other, so each misses every one of its pages at least once,
        and each bills only its own class."""
        pool = BufferPool(capacity=32)
        a = PageManager(page_size=128, buffer_pages=8, buffer=pool)
        b = PageManager(page_size=128, buffer_pages=8, buffer=pool)
        ids_a = [a.allocate(32, page_class="A") for _ in range(6)]
        ids_b = [b.allocate(32, page_class="B") for _ in range(6)]
        assert ids_a == ids_b  # same numeric ids on purpose

        def worker(manager):
            for _ in range(150):
                for pid in ids_a:
                    manager.read(pid)

        threads = [
            threading.Thread(target=worker, args=(manager,))
            for manager in (a, b, a, b)
        ]
        _run_threads(threads)
        for manager, page_class in ((a, "A"), (b, "B")):
            assert manager.stats.logical_by_class == {page_class: 2 * 150 * 6}
            assert manager.stats.physical_by_class[page_class] >= len(ids_a)
        assert {owner for owner, _pid in pool._entries} <= {a._owner, b._owner}

    def test_capacity_respected_under_threads(self):
        pool = BufferPool(capacity=5)
        manager = PageManager(page_size=128, buffer_pages=8, buffer=pool)
        page_ids = [manager.allocate(16) for _ in range(20)]

        def worker(seed: int):
            _hammer(manager, page_ids, 300, seed)

        with ThreadPoolExecutor(max_workers=6) as pool_exec:
            list(pool_exec.map(worker, range(6)))
        assert len(pool) <= 5

    def test_drop_is_per_owner(self):
        pool = BufferPool(capacity=16)
        a = PageManager(page_size=128, buffer_pages=4, buffer=pool)
        b = PageManager(page_size=128, buffer_pages=4, buffer=pool)
        pa = a.allocate(8)
        pb = b.allocate(8)
        a.read(pa)
        b.read(pb)
        assert len(pool) == 2
        a.drop_buffer()
        assert len(pool) == 1
        # b's page survived a's drop: the next read is still a hit.
        before = b.stats.physical_reads
        b.read(pb)
        assert b.stats.physical_reads == before

    def test_shared_pool_singleton_and_validation(self):
        with pytest.raises(StorageError):
            BufferPool(capacity=0)

    def test_separate_stats_objects_still_consistent(self):
        """Managers sharing a pool but not stats keep exact counts."""
        pool = BufferPool(capacity=64)
        sa, sb = IOStatistics(), IOStatistics()
        a = PageManager(page_size=128, buffer_pages=4, stats=sa, buffer=pool)
        b = PageManager(page_size=128, buffer_pages=4, stats=sb, buffer=pool)
        ids_a = [a.allocate(8) for _ in range(4)]
        ids_b = [b.allocate(8) for _ in range(4)]

        def worker(manager, ids, seed):
            _hammer(manager, ids, 200, seed)

        threads = [
            threading.Thread(target=worker, args=(a, ids_a, 0)),
            threading.Thread(target=worker, args=(b, ids_b, 1)),
            threading.Thread(target=worker, args=(a, ids_a, 2)),
            threading.Thread(target=worker, args=(b, ids_b, 3)),
        ]
        _run_threads(threads)
        assert sa.logical_reads == 400
        assert sb.logical_reads == 400
        # Every page is resident after warmup: misses happened only
        # on first touch per page.
        assert sa.physical_reads >= 4
        assert sb.physical_reads >= 4


class TestRunsOnSharedPool:
    def test_two_managers_share_a_pool_under_fast_switching(self):
        """Two managers, single reads and runs from two threads each,
        the interpreter switching threads as often as it can: per
        class, reads issued == buffer hits + physical reads, with the
        hits counted independently in each thread's profile."""
        pool = BufferPool(capacity=6)
        managers = [
            PageManager(page_size=128, buffer_pages=4, buffer=pool)
            for _ in range(2)
        ]
        classes = ("dmtm", "msdn", "objects")
        ids = {}
        for manager in managers:
            ids[manager] = [
                manager.allocate(16, page_class=classes[i % 3])
                for i in range(12)
            ]
        jobs = [(managers[s % 2], s) for s in range(4)]
        profiles: dict = {}

        def worker(manager, seed):
            ctx = ObsContext(f"worker-{seed}", profiling=True)
            with ctx.activate(), ctx.phase("worker"):
                _hammer(manager, ids[manager], 300, seed)
            (profiles[seed],) = ctx.finished_profiles()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(
                [threading.Thread(target=worker, args=job, daemon=True)
                 for job in jobs]
            )
        finally:
            sys.setswitchinterval(previous)
        assert len(pool) <= pool.capacity
        for manager in managers:
            seeds = [seed for m, seed in jobs if m is manager]
            issued: dict = {}
            for seed in seeds:
                for page_id in _walk(ids[manager], 300, seed):
                    cls = manager.page_class_of(page_id)
                    issued[cls] = issued.get(cls, 0) + 1
            stats = manager.stats
            assert stats.logical_by_class == issued
            counters = [profiles[seed].counters_by_phase() for seed in seeds]
            hits = sum(c["worker"].get("logical_reads", 0) for c in counters)
            for cls in classes:
                physical = sum(
                    c.get("page-io", {}).get("physical." + cls, 0)
                    for c in counters
                )
                assert stats.physical_by_class.get(cls, 0) == physical
                assert 4 <= physical <= issued[cls]
            assert stats.logical_reads == hits + stats.physical_reads
            assert stats.physical_reads == sum(stats.physical_by_class.values())
            assert hits > 0
