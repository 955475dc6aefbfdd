"""Process-wide metrics: named counters, gauges and histograms.

The registry is deliberately tiny — no labels, no exposition formats —
because its consumers are the bench harness and tests, not a scrape
endpoint.  Counters are monotone totals (kernel work: vertices
settled, edges relaxed), gauges are last-written values (structure
sizes), histograms are fixed-bucket distributions with an interpolated
quantile readout (per-query latencies).

Registries are scoped through :class:`~repro.obs.context.ObsContext`:
hot kernels resolve the *active* context's registry via
:func:`repro.obs.context.active_registry`, which falls back to the
module-level default when no context is active.
Instruments are created on first use.  Incrementing a counter is one
dict hit + integer add, cheap enough to stay always-on (kernels
additionally batch their counts and report once per call, not once
per relaxation).
"""

from __future__ import annotations

import bisect
import math
import threading


class Counter:
    """Monotonically increasing total.

    ``add`` takes the instrument lock: attribute ``+=`` is not atomic
    in CPython, so unlocked concurrent increments from a query thread
    pool would lose counts.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def add(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0


#: Default histogram buckets: exponential, centred on the
#: milliseconds-to-seconds range of per-query timings.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """Fixed-bucket histogram with quantile readout.

    ``buckets`` are ascending finite upper bounds; observations above
    the last bound land in an implicit +inf bucket.  Quantiles are
    estimated by linear interpolation inside the owning bucket
    (clamped to the observed min/max), so the estimation error is at
    most one bucket width — verified against a reference in
    tests/test_obs.py.
    """

    __slots__ = (
        "name", "bounds", "counts", "count", "total", "_min", "_max", "_lock",
    )

    def __init__(self, name: str, buckets=DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be ascending and distinct")
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError("histogram buckets must be finite")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.counts[bisect.bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 <= q <= 1) of the observations."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        # The extremes are tracked exactly — no bucket interpolation.
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                lo = self.bounds[i - 1] if i > 0 else min(self._min, self.bounds[0])
                hi = self.bounds[i] if i < len(self.bounds) else self._max
                fraction = (rank - (cumulative - bucket_count)) / bucket_count
                estimate = lo + (hi - lo) * max(0.0, min(1.0, fraction))
                return max(self._min, min(self._max, estimate))
        return self._max

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Requires identical bucket bounds (child contexts create their
        instruments from the same call sites, so bounds always line
        up in practice).
        """
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r}: bucket bounds differ"
            )
        with self._lock:
            for i, n in enumerate(other.counts):
                self.counts[i] += n
            self.count += other.count
            self.total += other.total
            if other._min < self._min:
                self._min = other._min
            if other._max > self._max:
                self._max = other._max

    def reset(self) -> None:
        with self._lock:
            self.counts = [0] * (len(self.bounds) + 1)
            self.count = 0
            self.total = 0.0
            self._min = math.inf
            self._max = -math.inf


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name, Histogram(name, buckets)
                )
        return instrument

    def collect(self) -> dict:
        """Snapshot every instrument as a JSON-ready dict."""
        out: dict[str, dict] = {}
        for name, c in sorted(self._counters.items()):
            out[name] = {"type": "counter", "value": c.value}
        for name, g in sorted(self._gauges.items()):
            out[name] = {"type": "gauge", "value": g.value}
        for name, h in sorted(self._histograms.items()):
            out[name] = {
                "type": "histogram",
                "count": h.count,
                "mean": h.mean,
                "p50": h.quantile(0.5),
                "p95": h.quantile(0.95),
                "p99": h.quantile(0.99),
            }
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one.

        Counters add, gauges are last-write-wins, histograms merge
        bucket-wise.  This is how a batch :class:`ObsContext` absorbs
        its per-query children.
        """
        for name, c in list(other._counters.items()):
            self.counter(name).add(c.value)
        for name, g in list(other._gauges.items()):
            self.gauge(name).set(g.value)
        for name, h in list(other._histograms.items()):
            self.histogram(name, h.bounds).merge(h)

    def reset(self) -> None:
        """Zero every instrument (keeps registrations)."""
        for group in (self._counters, self._gauges, self._histograms):
            for instrument in group.values():
                instrument.reset()


_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The legacy process-wide registry — the default
    :class:`~repro.obs.context.ObsContext` wraps exactly this object."""
    return _default
