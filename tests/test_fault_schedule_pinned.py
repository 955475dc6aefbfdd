"""The seeded fault schedule of a small engine, pinned end to end.

A :class:`~repro.storage.faults.FaultInjector` draws from one private
RNG per attempt, so every draw shifts the draws after it: a corrupt
attempt that consumes a different number of random words (no byte
offset drawn, or one drawn over a range of another bit length) moves
every later fault to another page, and with it the retries, the
quarantine and the degraded answers.  This test runs a BH 17 engine
under transient, corrupt and latency rates plus a kill-list and
compares the injector log, the manager's ``FaultStats`` and every
answer with values recorded when pages still carried payload bytes,
so a change to how the schedule is drawn fails here even when every
answer stays sound.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.engine import SurfaceKNNEngine
from repro.storage.faults import FaultInjector, RetryPolicy, kill_random_pages
from repro.testkit.generators import standard_mesh

#: Kill-list drawn by ``kill_random_pages(pages, 0.01, seed=13)``.
DEAD_PAGES = [150, 190, 236, 265, 297]

#: Length, counts by kind, first events and the SHA-1 of the
#: ``repr`` of ``[(kind, page_id, sequence, detail.hex()), ...]``.
LOG_LENGTH = 114
LOG_COUNTS = {"transient": 38, "corrupt": 43, "latency": 29, "dead": 4}
LOG_HEAD = [
    ("latency", 77, 0, "0x1.47ae147ae147bp-7"),
    ("corrupt", 86, 1, "0x0.0p+0"),
    ("transient", 89, 2, "0x0.0p+0"),
    ("transient", 90, 3, "0x0.0p+0"),
    ("corrupt", 93, 4, "0x0.0p+0"),
    ("transient", 351, 5, "0x0.0p+0"),
]
LOG_SHA1 = "bdb6e1cddc41e0e762c4a579426b797dd509a13d"

FAULT_STATS = {
    "retries_total": 83,
    "transient_faults_total": 42,
    "corruptions_total": 43,
    "latency_events_total": 29,
    "latency_seconds_total": 0.2900000000000001,
    "backoff_seconds_total": 0.09700000000000007,
    "reads_failed_total": 2,
    "pages_quarantined_total": 2,
    "quarantine_fastfails_total": 4,
    "quarantine_probes_total": 0,
    "pages_readmitted_total": 0,
}

#: Per query vertex (k = 3): object ids, intervals as float hex,
#: ``degraded`` and ``max_error`` as float hex.
ANSWERS = {
    10: (
        (3, 4, 15),
        (
            ("0x1.4deeb6a5f81eep+8", "0x1.643f5c420ebadp+8"),
            ("0x1.c2751ff3cb437p+8", "0x1.c4c056fcff572p+8"),
            ("0x1.980545215459ap+8", "0x1.f2e1d5fa07f63p+8"),
        ),
        False,
        "0x0.0p+0",
    ),
    40: (
        (15, 3, 11),
        (
            ("0x1.797beb728099cp+6", "0x1.797beb728099cp+6"),
            ("0x1.ddf38ebc770e3p+7", "0x1.f1a00d6bffab2p+7"),
            ("0x1.752e3ee4b498cp+8", "0x1.af8b84c1e4f8cp+8"),
        ),
        True,
        "0x1.d2ea2ee983000p+5",
    ),
    100: (
        (19, 4, 12),
        (
            ("0x1.4b3336f6b1600p+8", "0x1.b04a6910bdd1ap+8"),
            ("0x1.910a5e4f55716p+8", "0x1.cb27c9dc07816p+8"),
            ("0x1.807dd213c88b7p+8", "0x1.d177b64183a26p+8"),
        ),
        True,
        "0x1.43e790b6ec5bcp+6",
    ),
    200: (
        (20, 1, 12),
        (
            ("0x0.0p+0", "0x0.0p+0"),
            ("0x1.955d7367608e1p+7", "0x1.f54456468d855p+7"),
            ("0x1.ac4648cd0c30dp+7", "0x1.0a1959fb0e2aep+8"),
        ),
        True,
        "0x1.9fb1aca44093cp+5",
    ),
}


@pytest.fixture(scope="module")
def faulted_run():
    injector = FaultInjector(
        seed=11,
        transient_rate=0.03,
        corrupt_rate=0.03,
        latency_rate=0.02,
        latency_seconds=0.01,
    )
    engine = SurfaceKNNEngine(
        standard_mesh("BH", 17),
        density=10.0,
        seed=3,
        fault_injector=injector,
        retry_policy=RetryPolicy(max_attempts=4),
    )
    dead = kill_random_pages(engine.pages, 0.01, seed=13)
    answers = {}
    for qv in ANSWERS:
        result = engine.query(qv, 3)
        answers[qv] = (
            tuple(result.object_ids),
            tuple((float(lb).hex(), float(ub).hex()) for lb, ub in result.intervals),
            result.degraded,
            float(result.max_error).hex(),
        )
    return engine, injector, dead, answers


class TestPinnedFaultSchedule:
    def test_kill_list(self, faulted_run):
        _engine, _injector, dead, _answers = faulted_run
        assert dead == DEAD_PAGES

    def test_injector_log(self, faulted_run):
        _engine, injector, _dead, _answers = faulted_run
        log = [
            (e.kind, e.page_id, e.sequence, float(e.detail).hex())
            for e in injector.log
        ]
        assert len(log) == LOG_LENGTH
        assert injector.counts == LOG_COUNTS
        assert log[: len(LOG_HEAD)] == LOG_HEAD
        assert hashlib.sha1(repr(log).encode()).hexdigest() == LOG_SHA1

    def test_fault_stats(self, faulted_run):
        engine, _injector, _dead, _answers = faulted_run
        assert engine.pages.fault_stats.as_dict() == FAULT_STATS

    def test_every_logged_latency_is_billed(self, faulted_run):
        """Each latency the injector logs is billed once, including
        the one drawn by an attempt that then failed transiently."""
        engine, injector, _dead, _answers = faulted_run
        stats = engine.pages.fault_stats
        logged = [e.detail for e in injector.log if e.kind == "latency"]
        assert stats.latency_events_total == len(logged)
        assert stats.latency_seconds_total == sum(logged)

    def test_answers(self, faulted_run):
        _engine, _injector, _dead, answers = faulted_run
        assert answers == ANSWERS
