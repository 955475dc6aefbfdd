"""Unit tests for the page manager and buffer pool."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.obs.context import ObsContext
from repro.storage.faults import FaultInjector, PageQuarantine, RetryPolicy
from repro.storage.pages import PageManager
from repro.storage.stats import DiskModel, IOStatistics
from repro.testkit.reference import read_page_reference


class TestAllocation:
    def test_ids_sequential(self):
        pm = PageManager(page_size=128)
        assert pm.allocate(1) == 0
        assert pm.allocate(7) == 1
        assert pm.num_pages == 2
        assert (pm.page_length(0), pm.page_length(1)) == (1, 7)

    def test_oversize_rejected(self):
        pm = PageManager(page_size=64)
        with pytest.raises(StorageError):
            pm.allocate(65)
        with pytest.raises(StorageError):
            pm.allocate(-1)
        assert pm.num_pages == 0

    def test_bad_geometry(self):
        with pytest.raises(StorageError):
            PageManager(page_size=16)
        with pytest.raises(StorageError):
            PageManager(buffer_pages=0)


class TestBufferPool:
    def test_miss_then_hit(self):
        stats = IOStatistics()
        pm = PageManager(page_size=128, buffer_pages=4, stats=stats)
        pid = pm.allocate(5)
        pm.read(pid)
        assert stats.physical_reads == 1
        pm.read(pid)
        assert stats.physical_reads == 1  # buffer hit
        assert stats.logical_reads == 2

    def test_lru_eviction(self):
        stats = IOStatistics()
        pm = PageManager(page_size=128, buffer_pages=2, stats=stats)
        pids = [pm.allocate(1) for i in range(3)]
        pm.read(pids[0])
        pm.read(pids[1])
        pm.read(pids[2])  # evicts pids[0]
        pm.read(pids[0])  # miss again
        assert stats.physical_reads == 4

    def test_lru_recency_updated(self):
        stats = IOStatistics()
        pm = PageManager(page_size=128, buffer_pages=2, stats=stats)
        pids = [pm.allocate(1) for i in range(3)]
        pm.read(pids[0])
        pm.read(pids[1])
        pm.read(pids[0])  # refresh 0; 1 becomes LRU
        pm.read(pids[2])  # evicts 1
        pm.read(pids[0])  # still cached
        assert stats.physical_reads == 3

    def test_drop_buffer(self):
        stats = IOStatistics()
        pm = PageManager(page_size=128, buffer_pages=4, stats=stats)
        pid = pm.allocate(1)
        pm.read(pid)
        pm.drop_buffer()
        pm.read(pid)
        assert stats.physical_reads == 2

    def test_missing_page(self):
        pm = PageManager()
        with pytest.raises(StorageError):
            pm.read(99)


class TestStatistics:
    def test_snapshot_delta(self):
        stats = IOStatistics()
        pm = PageManager(page_size=128, buffer_pages=1, stats=stats)
        a = pm.allocate(1)
        b = pm.allocate(1)
        before = stats.snapshot()
        pm.read(a)
        pm.read(b)
        delta = stats.delta_since(before)
        assert delta.physical_reads == 2
        assert delta.logical_reads == 2

    def test_reset(self):
        stats = IOStatistics(logical_reads=5, physical_reads=3)
        stats.reset()
        assert stats.logical_reads == 0
        assert stats.physical_reads == 0

    def test_disk_model(self):
        model = DiskModel(seconds_per_page=0.01)
        stats = IOStatistics(physical_reads=25)
        assert model.io_seconds(stats) == pytest.approx(0.25)


# ----------------------------------------------------------------------
# The run read against the per-page oracle


#: Pages each twin allocates; page id NUM_PAGES is never allocated, so
#: reading it raises a plain StorageError part-way through a run.
NUM_PAGES = 12
CLASSES = ("dmtm", "msdn", "other")


@st.composite
def fault_setups(draw) -> dict:
    return {
        # No injector is the path production takes: clean misses are
        # fetched inline.
        "injector": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
        "transient_rate": draw(st.sampled_from([0.0, 0.1, 0.3])),
        "corrupt_rate": draw(st.sampled_from([0.0, 0.1, 0.3])),
        "latency_rate": draw(st.sampled_from([0.0, 0.2])),
        "dead_pages": draw(st.sets(st.integers(0, NUM_PAGES - 1), max_size=3)),
        # After run i: whether the buffer is dropped (as a cold query
        # does).
        "between": draw(st.lists(st.booleans(), max_size=6)),
        # Page classes in allocation order: scattered, or sorted into
        # at most three spans so that runs fall inside one span.
        "classes": draw(
            st.lists(st.sampled_from(CLASSES), min_size=NUM_PAGES,
                     max_size=NUM_PAGES).flatmap(
                lambda c: st.sampled_from([c, sorted(c)]))
        ),
        "buffer_pages": draw(st.integers(2, 8)),
        "attempts": draw(st.integers(1, 3)),
        "cooldown": draw(st.integers(1, 3)),
    }


page_runs = st.lists(
    st.lists(st.integers(0, NUM_PAGES), max_size=8), min_size=1, max_size=12
)


def _length(page_id: int) -> int:
    """Page lengths in 0..23: empty pages too, whose corrupt draws
    draw no byte offset."""
    return 2 * page_id % 24


def _twin(setup: dict) -> PageManager:
    """A manager built from ``setup`` alone, so two calls give twins."""
    injector = None
    if setup["injector"]:
        injector = FaultInjector(
            seed=setup["seed"],
            transient_rate=setup["transient_rate"],
            corrupt_rate=setup["corrupt_rate"],
            latency_rate=setup["latency_rate"],
            dead_pages=setup["dead_pages"],
        )
    pm = PageManager(
        page_size=128,
        buffer_pages=setup["buffer_pages"],
        fault_injector=injector,
        retry_policy=RetryPolicy(max_attempts=setup["attempts"]),
        quarantine=PageQuarantine(cooldown_reads=setup["cooldown"],
                                  max_cooldown_reads=4),
    )
    scattered = [CLASSES[i % 3] for i in range(NUM_PAGES)]
    for i, page_class in enumerate(setup.get("classes", scattered)):
        pm.allocate(_length(i), page_class=page_class)
    return pm


def _replay(pm: PageManager, runs, read_run, profiling: bool, between=()) -> dict:
    """Every run read by ``read_run`` inside its own phase, the buffer
    dropped after run ``i`` when ``between[i]``; the outcome of each
    run and everything the manager exposes, with the profiles when
    ``profiling``."""
    ctx = ObsContext("differential", tracing=True, profiling=profiling)
    outcomes = []
    with ctx.activate():
        for i, run in enumerate(runs):
            with ctx.phase("query"):
                try:
                    outcomes.append(read_run(pm, run))
                except StorageError as exc:
                    outcomes.append((type(exc), str(exc)))
            if i < len(between) and between[i]:
                pm.drop_buffer()
    stats = pm.stats
    outcome = {
        "outcomes": outcomes,
        "stats": (
            stats.logical_reads,
            stats.physical_reads,
            stats.pages_written,
            list(stats.logical_by_class.items()),
            list(stats.physical_by_class.items()),
        ),
        "buffer": [page_id for _owner, page_id in pm.buffer._entries],
        "fault_stats": pm.fault_stats.as_dict(),
        "injector_log": list(pm.fault_injector.log) if pm.fault_injector else [],
        "quarantine_history": {
            page_id: h for (_owner, page_id), h in pm.quarantine.history().items()
        },
        "quarantine_stats": pm.quarantine.stats(),
        "quarantine_entries": [
            dataclasses.replace(entry, owner=0) for entry in pm.quarantine.entries()
        ],
        "registry": ctx.registry.collect(),
        "spans": [(s.name, s.attributes) for s in ctx.finished_spans()],
    }
    if profiling:
        outcome["profiles"] = [
            (
                p.counters_by_phase(),
                [(n.name, n.calls, n.counters) for n in p.root.walk()],
            )
            for p in ctx.finished_profiles()
        ]
    return outcome


def _by_page(pm: PageManager, run) -> None:
    for page_id in run:
        read_page_reference(pm, page_id)


def _as_run(pm: PageManager, run) -> None:
    pm.read_pages(run)


class TestRunRead:
    @given(setup=fault_setups(), runs=page_runs)
    @settings(max_examples=150, deadline=None)
    def test_run_equals_pages_read_one_by_one(self, setup, runs):
        for profiling in (True, False):
            want = _replay(_twin(setup), runs, _by_page, profiling, setup["between"])
            got = _replay(_twin(setup), runs, _as_run, profiling, setup["between"])
            for field, value in want.items():
                assert got[field] == value, (profiling, field)
        # Both sides classify through the class spans; pin those to
        # the allocations themselves.
        pm = _twin(setup)
        assert [pm.page_class_of(i) for i in range(-1, NUM_PAGES + 1)] == (
            ["other"] + setup["classes"] + ["other"]
        )

    def test_failing_page_ends_run_after_flushing_the_pages_before_it(self):
        stats = IOStatistics()
        pm = PageManager(page_size=128, buffer_pages=4, stats=stats)
        a = pm.allocate(1, page_class="dmtm")
        with pytest.raises(StorageError):
            pm.read_pages([a, a, 99, a])
        assert (stats.logical_reads, stats.physical_reads) == (2, 1)
        assert stats.logical_by_class == {"dmtm": 2}


def _two_spans() -> PageManager:
    """Pages 0-1 of class dmtm and 2-3 of class msdn: two class spans."""
    pm = PageManager(page_size=128, buffer_pages=8)
    for i, page_class in enumerate(("dmtm", "dmtm", "msdn", "msdn")):
        pm.allocate(_length(i), page_class=page_class)
    return pm


def _flushed(runs, read_run, reset_after: int | None = None) -> tuple:
    """The statistics of a :func:`_two_spans` manager after ``runs``,
    the ``*_by_class`` dicts in insertion order; they are reset after
    run ``reset_after``."""
    pm = _two_spans()
    for i, run in enumerate(runs):
        try:
            read_run(pm, run)
        except StorageError:
            pass
        if i == reset_after:
            pm.stats.reset()
    stats = pm.stats
    return (
        stats.logical_reads,
        stats.physical_reads,
        list(stats.logical_by_class.items()),
        list(stats.physical_by_class.items()),
    )


class TestRunFlush:
    """A run inside one class span is billed at once, any other run
    page by page; both equal one read per page, key order included."""

    @pytest.mark.parametrize(
        "runs, reset_after, want",
        [
            # Straddles the spans: ids 1 and 2 sit on either side of
            # the boundary.
            ([[1, 2, 3, 0, 2]], None,
             (5, 4, [("dmtm", 2), ("msdn", 3)], [("dmtm", 2), ("msdn", 2)])),
            # Inside one span, after a run in the other.
            ([[2], [0, 1, 0]], None,
             (4, 3, [("msdn", 1), ("dmtm", 3)], [("msdn", 1), ("dmtm", 2)])),
            # All hits after a reset: no physical key at all.
            ([[3, 2], [2, 3, 2]], 0, (3, 0, [("msdn", 3)], [])),
            # Fails part-way on an id never allocated: the pages before
            # it are billed, straddling or not.
            ([[0, 2, 99, 1]], None,
             (2, 2, [("dmtm", 1), ("msdn", 1)], [("dmtm", 1), ("msdn", 1)])),
            ([[3, 3, 99, 0]], None, (2, 1, [("msdn", 2)], [("msdn", 1)])),
        ],
    )
    def test_flush_equals_pages_read_one_by_one(self, runs, reset_after, want):
        assert _flushed(runs, _by_page, reset_after) == want
        assert _flushed(runs, _as_run, reset_after) == want
