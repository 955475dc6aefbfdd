"""Fault injection for the simulated disk.

A real deployment sees flaky disks: transient read errors, silently
flipped bits, latency spikes.  The simulated storage layer models all
three so the rest of the stack can be hardened against them:

* :class:`FaultInjector` — draws faults from a *seeded* schedule, one
  draw per physical read attempt, so a test run is reproducible;
* :class:`RetryPolicy` — bounded attempts with deterministic
  exponential backoff (the backoff is *simulated* seconds, accounted
  but never slept, so fault-heavy tests stay fast);
* :class:`FaultStats` — per-manager counters of what was injected,
  detected and retried, mirrored into the process-wide
  :mod:`repro.obs` metrics registry.

The injector sits on the read path of
:class:`~repro.storage.pages.SimulatedDisk`: a transient fault raises
:class:`~repro.errors.PageReadError` for that attempt, a corruption
fault reports the attempt corrupt (the manager treats it as a failed
CRC check; pages are ids, so no bytes are flipped), a latency fault
reports simulated extra seconds.  With no injector attached the read
path is exactly the pre-fault behaviour.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.errors import StorageError

#: Fault kinds drawn by the injector.
FAULT_TRANSIENT = "transient"
FAULT_CORRUPT = "corrupt"
FAULT_LATENCY = "latency"
FAULT_DEAD = "dead"  # page on the kill-list: every attempt fails


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the injector's log."""

    kind: str  # transient | corrupt | latency
    page_id: int
    sequence: int  # monotone per-injector event number
    detail: float = 0.0  # latency seconds for latency faults


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``max_attempts`` counts the initial attempt too (so 4 means one
    try plus up to three retries).  Backoff for retry *i* (1-based) is
    ``backoff_base * backoff_factor ** (i - 1)`` seconds — simulated,
    never slept, accumulated into :class:`FaultStats`.
    """

    max_attempts: int = 4
    backoff_base: float = 0.001
    backoff_factor: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise StorageError("retry policy needs max_attempts >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise StorageError(
                "retry backoff needs base >= 0 and factor >= 1"
            )

    def backoff_seconds(self, retry_number: int) -> float:
        """Deterministic backoff before the ``retry_number``-th retry
        (1-based)."""
        return self.backoff_base * self.backoff_factor ** (retry_number - 1)


@dataclass
class FaultStats:
    """Counters kept by a :class:`~repro.storage.pages.PageManager`.

    ``retries_total`` counts re-attempts actually performed; with
    every fault eventually recovered it equals the number of failed
    attempts (one retry per detected transient or corruption).
    """

    retries_total: int = 0
    transient_faults_total: int = 0
    corruptions_total: int = 0
    latency_events_total: int = 0
    latency_seconds_total: float = 0.0
    backoff_seconds_total: float = 0.0
    reads_failed_total: int = 0  # reads that exhausted the policy
    pages_quarantined_total: int = 0
    quarantine_fastfails_total: int = 0  # reads refused without disk I/O
    quarantine_probes_total: int = 0
    pages_readmitted_total: int = 0

    def as_dict(self) -> dict:
        return {
            "retries_total": self.retries_total,
            "transient_faults_total": self.transient_faults_total,
            "corruptions_total": self.corruptions_total,
            "latency_events_total": self.latency_events_total,
            "latency_seconds_total": self.latency_seconds_total,
            "backoff_seconds_total": self.backoff_seconds_total,
            "reads_failed_total": self.reads_failed_total,
            "pages_quarantined_total": self.pages_quarantined_total,
            "quarantine_fastfails_total": self.quarantine_fastfails_total,
            "quarantine_probes_total": self.quarantine_probes_total,
            "pages_readmitted_total": self.pages_readmitted_total,
        }


class _TransientFault(Exception):
    """Internal marker raised by the injector for one failed attempt
    (converted to PageReadError once retries are exhausted).
    ``latency`` carries the simulated seconds the attempt drew before
    it failed, which the caller bills like a clean attempt's."""

    def __init__(self, message: str, latency: float = 0.0):
        super().__init__(message)
        self.latency = latency


class FaultInjector:
    """Seeded fault schedule for the simulated disk.

    Parameters
    ----------
    seed:
        Seed of the private RNG — the whole schedule is a
        deterministic function of the seed and the sequence of read
        attempts.
    transient_rate, corrupt_rate, latency_rate:
        Independent per-attempt probabilities of each fault kind (a
        transient draw wins over a corruption draw; latency is
        orthogonal and can accompany a successful read).
    latency_seconds:
        Simulated extra seconds added by one latency spike.
    max_faults:
        Optional hard cap on injected transient+corrupt faults (keeps
        worst-case retry storms bounded in stress tests).
    dead_pages:
        Pages that fail *every* read attempt — a persistent fault, as
        opposed to the recoverable rate-drawn kinds.  Dead-page events
        are exempt from ``max_faults`` (they are not a random storm to
        bound but a fixture of the schedule) yet still counted in
        ``injected_total`` so the retry/failure reconciliation identity
        holds.

    Thread safety: draws take the injector lock, so worker threads
    hammering one disk see a consistent (if interleaving-dependent)
    schedule, and the log/counters never tear.
    """

    def __init__(
        self,
        seed: int = 0,
        transient_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        latency_rate: float = 0.0,
        latency_seconds: float = 0.05,
        max_faults: int | None = None,
        dead_pages: "set[int] | frozenset[int] | list[int] | None" = None,
    ):
        for name, rate in (
            ("transient_rate", transient_rate),
            ("corrupt_rate", corrupt_rate),
            ("latency_rate", latency_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise StorageError(f"{name} must be in [0, 1], got {rate}")
        self.transient_rate = transient_rate
        self.corrupt_rate = corrupt_rate
        self.latency_rate = latency_rate
        self.latency_seconds = latency_seconds
        self.max_faults = max_faults
        self.dead_pages: set[int] = set(dead_pages or ())
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._sequence = 0
        self.log: list[FaultEvent] = []
        self.counts: dict[str, int] = {
            FAULT_TRANSIENT: 0,
            FAULT_CORRUPT: 0,
            FAULT_LATENCY: 0,
            FAULT_DEAD: 0,
        }

    def kill(self, page_ids) -> None:
        """Permanently fail every future read of ``page_ids``."""
        with self._lock:
            self.dead_pages.update(int(p) for p in page_ids)

    def revive(self, page_ids) -> None:
        """Remove pages from the kill-list (the disk 'heals')."""
        with self._lock:
            self.dead_pages.difference_update(int(p) for p in page_ids)

    # ------------------------------------------------------------------

    def _record(self, kind: str, page_id: int, detail: float = 0.0) -> None:
        event = FaultEvent(
            kind=kind, page_id=page_id, sequence=self._sequence, detail=detail
        )
        self._sequence += 1
        self.log.append(event)
        self.counts[kind] += 1

    def _budget_left(self) -> bool:
        if self.max_faults is None:
            return True
        hard = self.counts[FAULT_TRANSIENT] + self.counts[FAULT_CORRUPT]
        return hard < self.max_faults

    def on_read(self, page_id: int, length: int) -> tuple[bool, float]:
        """One physical read attempt of a page of ``length`` payload
        bytes: returns (corrupt, extra seconds).

        Raises the internal transient marker when this attempt fails,
        carrying the latency the attempt drew first; may report the
        attempt corrupt (the caller treats it as a failed CRC check);
        may report simulated latency alongside either outcome.  A
        corrupt draw on a non-empty page also draws the offset of the
        byte it stands for, ``randrange(length)``, so the schedule
        after it is the one a flipped payload byte draws.
        """
        with self._lock:
            if page_id in self.dead_pages:
                self._record(FAULT_DEAD, page_id)
                raise _TransientFault(
                    f"page {page_id} is on the kill-list (persistent fault)"
                )
            latency = 0.0
            if self.latency_rate and self._rng.random() < self.latency_rate:
                latency = self.latency_seconds
                self._record(FAULT_LATENCY, page_id, detail=latency)
            if self._budget_left():
                if (
                    self.transient_rate
                    and self._rng.random() < self.transient_rate
                ):
                    self._record(FAULT_TRANSIENT, page_id)
                    raise _TransientFault(
                        f"injected transient fault on page {page_id}", latency
                    )
                if (
                    self.corrupt_rate
                    and self._rng.random() < self.corrupt_rate
                ):
                    self._record(FAULT_CORRUPT, page_id)
                    if length:
                        self._rng.randrange(length)
                    return True, latency
            return False, latency

    # ------------------------------------------------------------------

    @property
    def injected_total(self) -> int:
        """Transient + corruption + dead-page faults injected so far."""
        return (
            self.counts[FAULT_TRANSIENT]
            + self.counts[FAULT_CORRUPT]
            + self.counts[FAULT_DEAD]
        )

    def summary(self) -> dict:
        """JSON-ready injector state (for bench reports)."""
        with self._lock:
            return {
                "transient": self.counts[FAULT_TRANSIENT],
                "corrupt": self.counts[FAULT_CORRUPT],
                "latency": self.counts[FAULT_LATENCY],
                "dead": self.counts[FAULT_DEAD],
                "dead_pages": len(self.dead_pages),
                "latency_seconds": sum(
                    e.detail for e in self.log if e.kind == FAULT_LATENCY
                ),
                "events": len(self.log),
            }


# ----------------------------------------------------------------------
# Page quarantine: fail fast on known-bad pages, probe for recovery.


#: Gate verdicts returned by :meth:`PageQuarantine.gate`.
QUARANTINE_CLEAR = "clear"
QUARANTINE_BLOCKED = "blocked"
QUARANTINE_PROBE = "probe"


@dataclass
class QuarantineEntry:
    """One quarantined ``(owner, page_id)`` with its probation state.

    ``cooldown`` is counted in *gated reads*, not wall clock, so the
    lifecycle is deterministic: after admission (or a failed probe)
    the next ``cooldown - 1`` reads fail fast and the ``cooldown``-th
    becomes a probe that goes through the full retry cycle.  Each
    failed probe doubles the cooldown up to a cap, so a page that
    stays dead costs geometrically less over time.
    """

    owner: int
    page_id: int
    reason: str  # transient | corrupt
    page_class: str
    cooldown: int
    fast_fails: int = 0
    probes: int = 0
    since_probe: int = 0
    probing: bool = False


class PageQuarantine:
    """Registry of pages whose reads exhausted the retry policy.

    A quarantined page costs one dictionary lookup per read instead of
    a full retry storm; a deterministic read-counted probation path
    re-probes the disk so a healed page is readmitted.  Cumulative
    per-page history (admissions, probes, readmissions) survives
    readmission so oracles can bound the total disk attempts a bad
    page may ever have seen.
    """

    def __init__(self, cooldown_reads: int = 8, max_cooldown_reads: int = 128):
        if cooldown_reads < 1 or max_cooldown_reads < cooldown_reads:
            raise StorageError(
                "quarantine needs 1 <= cooldown_reads <= max_cooldown_reads"
            )
        self.cooldown_reads = cooldown_reads
        self.max_cooldown_reads = max_cooldown_reads
        self._lock = threading.Lock()
        self._entries: dict[tuple[int, int], QuarantineEntry] = {}
        self._history: dict[tuple[int, int], dict] = {}
        self.fast_fails_total = 0
        self.probes_total = 0
        self.readmissions_total = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return tuple(key) in self._entries

    def entries(self) -> list[QuarantineEntry]:
        """Snapshot of the current quarantine population."""
        with self._lock:
            return list(self._entries.values())

    def history(self) -> dict[tuple[int, int], dict]:
        """Cumulative per-page lifecycle counts (survive readmission)."""
        with self._lock:
            return {key: dict(h) for key, h in self._history.items()}

    def reason_of(self, owner: int, page_id: int) -> str | None:
        entry = self._entries.get((owner, page_id))
        return entry.reason if entry is not None else None

    # -- read-path hooks ------------------------------------------------

    def gate(self, owner: int, page_id: int) -> str:
        """Classify one read of ``page_id``: ``clear`` (not
        quarantined), ``blocked`` (fail fast), or ``probe`` (let this
        read through the full retry cycle)."""
        with self._lock:
            entry = self._entries.get((owner, page_id))
            if entry is None:
                return QUARANTINE_CLEAR
            if not entry.probing:
                entry.since_probe += 1
                if entry.since_probe >= entry.cooldown:
                    entry.probing = True
                    entry.since_probe = 0
                    entry.probes += 1
                    self.probes_total += 1
                    self._history[(owner, page_id)]["probes"] += 1
                    return QUARANTINE_PROBE
            entry.fast_fails += 1
            self.fast_fails_total += 1
            return QUARANTINE_BLOCKED

    def admit(
        self, owner: int, page_id: int, reason: str, page_class: str
    ) -> None:
        """Quarantine a page whose read just exhausted the policy."""
        with self._lock:
            key = (owner, page_id)
            if key in self._entries:
                self._entries[key].reason = reason
                return
            self._entries[key] = QuarantineEntry(
                owner=owner,
                page_id=page_id,
                reason=reason,
                page_class=page_class,
                cooldown=self.cooldown_reads,
            )
            history = self._history.setdefault(
                key, {"admissions": 0, "probes": 0, "readmissions": 0}
            )
            history["admissions"] += 1

    def probe_failed(self, owner: int, page_id: int) -> None:
        """A probation read exhausted the policy again: keep the page
        quarantined with a doubled (capped) cooldown."""
        with self._lock:
            entry = self._entries.get((owner, page_id))
            if entry is None:
                return
            entry.probing = False
            entry.since_probe = 0
            entry.cooldown = min(entry.cooldown * 2, self.max_cooldown_reads)

    def probe_succeeded(self, owner: int, page_id: int) -> None:
        """A probation read came back clean: readmit the page."""
        with self._lock:
            if self._entries.pop((owner, page_id), None) is not None:
                self.readmissions_total += 1
                self._history[(owner, page_id)]["readmissions"] += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "quarantined": len(self._entries),
                "fast_fails_total": self.fast_fails_total,
                "probes_total": self.probes_total,
                "readmissions_total": self.readmissions_total,
            }


def kill_random_pages(
    pages,
    fraction: float,
    seed: int = 0,
    classes: tuple[str, ...] = ("dmtm", "msdn"),
) -> list[int]:
    """Permanently kill a seeded random fraction of a manager's pages.

    Picks ``floor(fraction * len(eligible))`` pages whose page class is
    in ``classes`` (by default the DMTM/MSDN bound sources, which are
    all the pages an engine writes) and adds them to the manager's
    injector kill-list, installing a zero-rate :class:`FaultInjector`
    if none is attached.  Returns the sorted killed page ids.
    """
    if not 0.0 <= fraction <= 1.0:
        raise StorageError(f"fraction must be in [0, 1], got {fraction}")
    eligible = [
        page_id
        for page_id in range(pages.num_pages)
        if pages.page_class_of(page_id) in classes
    ]
    count = int(len(eligible) * fraction)
    if count == 0:
        return []
    rng = random.Random(seed)
    dead = sorted(rng.sample(eligible, count))
    injector = pages.fault_injector
    if injector is None:
        injector = FaultInjector(seed=seed)
        pages.fault_injector = injector
    injector.kill(dead)
    return dead
