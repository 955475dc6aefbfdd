"""Resilient storage: seeded fault injection, corrupt attempts reported
as failed CRC checks, and bounded retries.

Contract under test: with an injector attached, every transient fault
and every corruption is either recovered by a retry (invisible in
results) or surfaced as a typed ``StorageError`` subclass after the
policy is exhausted — and the retry/corruption counters reconcile
exactly with the injector's own event log.  Without an injector the
read path is behaviourally identical to a fault-free build.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import SurfaceKNNEngine
from repro.errors import (
    PageCorruptionError,
    PageReadError,
    QuarantinedPageError,
    StorageError,
)
from repro.obs.context import ObsContext
from repro.storage.faults import (
    FAULT_CORRUPT,
    FAULT_DEAD,
    FAULT_LATENCY,
    FAULT_TRANSIENT,
    FaultInjector,
    PageQuarantine,
    RetryPolicy,
    kill_random_pages,
)
from repro.storage.pages import PageManager


def make_manager(injector=None, **kwargs) -> PageManager:
    pm = PageManager(fault_injector=injector, **kwargs)
    for _ in range(8):
        pm.allocate(60)
    return pm


class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        runs = []
        for _ in range(2):
            inj = FaultInjector(seed=42, transient_rate=0.5, corrupt_rate=0.3)
            outcomes = []
            for attempt in range(50):
                try:
                    corrupt, _lat = inj.on_read(attempt % 4, 7)
                    outcomes.append(corrupt)
                except Exception:
                    outcomes.append("transient")
            runs.append((outcomes, [e.kind for e in inj.log]))
        assert runs[0] == runs[1]

    def test_rates_validated(self):
        with pytest.raises(StorageError):
            FaultInjector(transient_rate=1.5)
        with pytest.raises(StorageError):
            FaultInjector(corrupt_rate=-0.1)

    def test_max_faults_caps_hard_faults(self):
        inj = FaultInjector(seed=1, transient_rate=1.0, max_faults=3)
        failures = 0
        for i in range(10):
            try:
                inj.on_read(i, 1)
            except Exception:
                failures += 1
        assert failures == 3
        assert inj.injected_total == 3

    def test_corruption_changes_payload(self):
        """A corrupt attempt stands for a payload with one byte
        flipped: it is reported corrupt and draws the byte's offset
        over the page length, so the schedule after it is the one a
        flipped byte draws; an empty page draws no offset."""
        inj = FaultInjector(seed=2, corrupt_rate=1.0)
        corrupt, _lat = inj.on_read(0, 11)
        assert corrupt
        twin = random.Random(2)
        twin.random()
        twin.randrange(11)
        assert inj._rng.getstate() == twin.getstate()
        inj.on_read(0, 0)
        twin.random()
        assert inj._rng.getstate() == twin.getstate()

    def test_latency_reported_not_slept(self):
        inj = FaultInjector(seed=3, latency_rate=1.0, latency_seconds=5.0)
        _corrupt, latency = inj.on_read(0, 1)
        assert latency == 5.0  # 5 simulated seconds returned instantly


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(StorageError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(StorageError):
            RetryPolicy(backoff_factor=0.5)

    def test_backoff_is_deterministic_exponential(self):
        policy = RetryPolicy(backoff_base=0.01, backoff_factor=2.0)
        assert policy.backoff_seconds(1) == pytest.approx(0.01)
        assert policy.backoff_seconds(2) == pytest.approx(0.02)
        assert policy.backoff_seconds(3) == pytest.approx(0.04)


class TestPageManagerRecovery:
    def test_transient_faults_recovered_by_retry(self):
        inj = FaultInjector(seed=1, transient_rate=1.0, max_faults=2)
        pm = make_manager(inj, retry_policy=RetryPolicy(max_attempts=4))
        pm.read(0)
        assert pm.stats.physical_reads == 1
        assert pm.fault_stats.retries_total == 2
        assert pm.fault_stats.transient_faults_total == 2
        assert pm.fault_stats.reads_failed_total == 0

    def test_exhausted_retries_raise_page_read_error(self):
        inj = FaultInjector(seed=1, transient_rate=1.0)
        pm = make_manager(inj, retry_policy=RetryPolicy(max_attempts=3))
        with pytest.raises(PageReadError):
            pm.read(0)
        assert pm.fault_stats.reads_failed_total == 1
        # 3 attempts = 2 retries, all of them failed.
        assert pm.fault_stats.retries_total == 2

    def test_corruption_detected_by_crc_and_retried(self):
        inj = FaultInjector(seed=2, corrupt_rate=1.0, max_faults=1)
        pm = make_manager(inj)
        pm.read(3)
        assert pm.stats.physical_reads == 1
        assert pm.fault_stats.corruptions_total == 1

    def test_persistent_corruption_raises_corruption_error(self):
        inj = FaultInjector(seed=2, corrupt_rate=1.0)
        pm = make_manager(inj, retry_policy=RetryPolicy(max_attempts=2))
        with pytest.raises(PageCorruptionError):
            pm.read(0)
        assert pm.fault_stats.corruptions_total == 2
        assert pm.fault_stats.reads_failed_total == 1

    def test_typed_errors_are_storage_errors(self):
        assert issubclass(PageReadError, StorageError)
        assert issubclass(PageCorruptionError, StorageError)

    def test_buffer_hit_skips_the_disk(self):
        # First read recovers; the cached copy must not re-draw faults.
        inj = FaultInjector(seed=1, transient_rate=1.0, max_faults=2)
        pm = make_manager(inj)
        pm.read(0)
        injected_after_first = inj.injected_total
        pm.read(0)
        assert inj.injected_total == injected_after_first

    def test_latency_spikes_accounted(self):
        inj = FaultInjector(seed=4, latency_rate=1.0, latency_seconds=0.25)
        pm = make_manager(inj)
        pm.read(0)
        assert pm.fault_stats.latency_events_total == 1
        assert pm.fault_stats.latency_seconds_total == pytest.approx(0.25)

    def test_latency_of_transient_attempts_billed(self):
        """An attempt that draws latency and then fails transiently
        bills its latency: every logged latency event is billed."""
        inj = FaultInjector(
            seed=4, latency_rate=1.0, transient_rate=1.0, latency_seconds=0.25
        )
        pm = make_manager(inj, retry_policy=RetryPolicy(max_attempts=3))
        with pytest.raises(PageReadError):
            pm.read(0)
        logged = [e.detail for e in inj.log if e.kind == FAULT_LATENCY]
        assert len(logged) == 3
        assert pm.fault_stats.transient_faults_total == 3
        assert pm.fault_stats.latency_events_total == len(logged)
        assert pm.fault_stats.latency_seconds_total == sum(logged)

    def test_retries_counted_in_query_context(self):
        """Retries are counters, not frames: the active context's
        ``storage.retries_total`` equals the manager's ``FaultStats``
        delta, and a traced read records no retry span."""
        inj = FaultInjector(seed=1, transient_rate=1.0, max_faults=3)
        ctx = ObsContext(tracing=True)
        pm = PageManager(fault_injector=inj)
        for i in range(2):
            pm.allocate(9)
        before = pm.fault_stats.retries_total
        with ctx.activate(), ctx.phase("query"):
            pm.read(0)
            pm.read(1)
        delta = pm.fault_stats.retries_total - before
        assert delta == 3
        assert ctx.registry.counter("storage.retries_total").value == delta
        (root,) = ctx.finished_spans()
        assert [s.name for s in root.walk()] == ["query"]

    def test_no_injector_means_no_counters(self):
        pm = make_manager(None)
        for i in range(8):
            pm.read(i)
        stats = pm.fault_stats.as_dict()
        assert all(v == 0 for v in stats.values())


class TestPageQuarantine:
    """Lifecycle of a known-bad page: admit after retry exhaustion,
    fail fast without touching the disk, probe after the read-counted
    cooldown, readmit on recovery — with cumulative history intact."""

    def dead_page_manager(self, cooldown_reads: int = 3):
        injector = FaultInjector(seed=1)
        injector.kill([0])
        pm = make_manager(
            injector,
            retry_policy=RetryPolicy(max_attempts=2),
            quarantine=PageQuarantine(cooldown_reads=cooldown_reads),
        )
        return pm, injector

    def test_exhausted_read_enters_quarantine(self):
        pm, injector = self.dead_page_manager()
        with pytest.raises(PageReadError):
            pm.read(0)
        assert (pm._owner, 0) in pm.quarantine
        assert pm.quarantine.reason_of(pm._owner, 0) == FAULT_TRANSIENT
        assert pm.fault_stats.pages_quarantined_total == 1
        assert pm.fault_stats.reads_failed_total == 1
        # Both attempts of the one retry cycle hit the kill-list.
        assert [e.kind for e in injector.log] == [FAULT_DEAD, FAULT_DEAD]

    def test_quarantined_reads_fail_fast_without_disk(self):
        pm, injector = self.dead_page_manager(cooldown_reads=3)
        with pytest.raises(PageReadError):
            pm.read(0)
        events_after_admit = len(injector.log)
        # Reads 1 and 2 of the cooldown window are blocked outright:
        # typed error, no retry storm, no injector traffic.
        for _ in range(2):
            with pytest.raises(QuarantinedPageError):
                pm.read(0)
        assert len(injector.log) == events_after_admit
        assert pm.fault_stats.quarantine_fastfails_total == 2
        assert pm.quarantine.stats()["fast_fails_total"] == 2
        # Fast fails are refusals, not read failures.
        assert pm.fault_stats.reads_failed_total == 1

    def test_quarantined_error_is_a_storage_error(self):
        assert issubclass(QuarantinedPageError, StorageError)

    def test_probe_failure_doubles_cooldown(self):
        pm, injector = self.dead_page_manager(cooldown_reads=3)
        with pytest.raises(PageReadError):
            pm.read(0)
        for _ in range(2):
            with pytest.raises(QuarantinedPageError):
                pm.read(0)
        events_before_probe = len(injector.log)
        # The cooldown-th gated read probes the disk: the full retry
        # cycle runs again and fails again.
        with pytest.raises(PageReadError):
            pm.read(0)
        assert len(injector.log) == events_before_probe + 2
        assert pm.fault_stats.quarantine_probes_total == 1
        (entry,) = pm.quarantine.entries()
        assert entry.cooldown == 6  # doubled after the failed probe
        # The page stays quarantined; the next read fails fast again.
        with pytest.raises(QuarantinedPageError):
            pm.read(0)

    def test_revived_page_is_readmitted_on_probe(self):
        pm, injector = self.dead_page_manager(cooldown_reads=1)
        with pytest.raises(PageReadError):
            pm.read(0)
        injector.revive([0])
        # cooldown_reads=1 makes the very next read the probe.
        pm.read(0)
        assert (pm._owner, 0) not in pm.quarantine
        assert len(pm.quarantine) == 0
        assert pm.fault_stats.pages_readmitted_total == 1
        assert pm.quarantine.stats()["readmissions_total"] == 1
        # Cumulative history survives readmission.
        history = pm.quarantine.history()[(pm._owner, 0)]
        assert history == {"admissions": 1, "probes": 1, "readmissions": 1}
        # A readmitted page serves reads normally again.
        pm.drop_buffer()
        reads = pm.stats.physical_reads
        pm.read(0)
        assert pm.stats.physical_reads == reads + 1

    def test_retry_identity_survives_quarantine_cycles(self):
        # The counter reconciliation from the recoverable-fault
        # contract must still hold when dead-page probe cycles are in
        # the mix: every injected event is either retried past or
        # ends a failed read, and fast-fails add nothing.
        pm, injector = self.dead_page_manager(cooldown_reads=2)
        for _ in range(12):
            with pytest.raises(StorageError):
                pm.read(0)
        stats = pm.fault_stats
        assert stats.retries_total == (
            injector.injected_total - stats.reads_failed_total
        )
        assert stats.quarantine_fastfails_total > 0

    def test_cooldown_validated(self):
        with pytest.raises(StorageError):
            PageQuarantine(cooldown_reads=0)
        with pytest.raises(StorageError):
            PageQuarantine(cooldown_reads=8, max_cooldown_reads=4)


class TestKillRandomPages:
    def test_fraction_validated(self):
        pm = make_manager(None)
        with pytest.raises(StorageError):
            kill_random_pages(pm, 1.5)
        with pytest.raises(StorageError):
            kill_random_pages(pm, -0.1)

    def test_respects_page_classes(self):
        # make_manager allocates everything under the default "other"
        # class, which the default DMTM/MSDN filter must skip.
        pm = make_manager(None)
        assert kill_random_pages(pm, 1.0) == []
        dead = kill_random_pages(pm, 0.5, classes=("other",))
        assert len(dead) == 4  # floor(8 * 0.5)
        assert dead == sorted(dead)

    def test_installs_zero_rate_injector(self):
        pm = make_manager(None)
        assert pm.fault_injector is None
        dead = kill_random_pages(pm, 0.25, seed=9, classes=("other",))
        injector = pm.fault_injector
        assert injector is not None
        assert set(injector.dead_pages) == set(dead)
        # The installed injector only carries the kill-list: reads of
        # surviving pages stay fault-free.
        for page_id in range(8):
            if page_id in injector.dead_pages:
                continue
            pm.read(page_id)
        assert pm.fault_stats.reads_failed_total == 0
        assert all(e.kind == FAULT_DEAD for e in injector.log)

    def test_deterministic_for_seed(self):
        picks = [
            kill_random_pages(make_manager(None), 0.5, seed=3, classes=("other",))
            for _ in range(2)
        ]
        assert picks[0] == picks[1]


class TestEngineUnderFaults:
    """Whole-stack: a faulted engine must answer every query
    identically to a clean one, with the counters reconciling."""

    @pytest.fixture(scope="class")
    def engines(self, bh_mesh):
        clean = SurfaceKNNEngine(bh_mesh, density=10.0, seed=3)
        injector = FaultInjector(
            seed=7, transient_rate=0.04, corrupt_rate=0.02
        )
        faulted = SurfaceKNNEngine(
            bh_mesh, density=10.0, seed=3,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=8),
        )
        return clean, faulted, injector

    def test_results_identical_under_recovered_faults(self, engines):
        clean, faulted, injector = engines
        for qv in (10, 40, 100, 200):
            want = clean.query(qv, 3)
            got = faulted.query(qv, 3)
            assert got.object_ids == want.object_ids
            assert got.intervals == want.intervals
            assert (
                got.metrics.logical_reads == want.metrics.logical_reads
            ), "fault recovery must not change logical read accounting"
        assert injector.injected_total > 0, "schedule injected nothing"

    def test_counters_reconcile_with_injector_log(self, engines):
        _clean, faulted, injector = engines
        stats = faulted.pages.fault_stats
        assert stats.transient_faults_total == injector.counts[FAULT_TRANSIENT]
        assert stats.corruptions_total == injector.counts[FAULT_CORRUPT]
        assert stats.retries_total == (
            injector.injected_total - stats.reads_failed_total
        )

    def test_injector_swappable_at_runtime(self, bh_mesh):
        engine = SurfaceKNNEngine(bh_mesh, density=10.0, seed=3)
        assert engine.pages.fault_injector is None
        injector = FaultInjector(seed=5, transient_rate=0.05)
        engine.pages.fault_injector = injector
        engine.query(40, 3)
        assert injector.injected_total >= 0  # schedule consulted
        engine.pages.fault_injector = None
        before = engine.pages.fault_stats.retries_total
        engine.query(40, 3)
        assert engine.pages.fault_stats.retries_total == before
