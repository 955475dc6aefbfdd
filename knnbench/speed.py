"""Reference-speed time: wall time corrected for how fast a shared
host runs at the moment.

A small guest that shares its host does not run at one speed.  On a
2-vCPU Xeon KVM guest the same query stream took between 2.8 and 5.3 s
within ten minutes, and the speed changes within seconds, so neither
the minimum over repeated passes nor a longer run removes it: the
quartile distance of ten benchmark runs reached a third of their
median.  Very
little of it is time the host takes the vCPU away (steal); the vCPU
keeps running, only slower.

:class:`Speedometer` times a fixed probe -- integer arithmetic, a
shortest-path search over a small grid graph with a binary heap, and
small numpy operations, the kind of work the engine does -- in the
calling thread's CPU time, between the operations the benchmark
times.  ``REFERENCE_PROBE_S / probe time`` is the speed factor at that
moment; interpolated linearly between probes and integrated over a
wall-clock interval it gives *reference seconds*: the time the
interval would have taken on the reference machine, a 2-vCPU Intel
Xeon KVM guest running CPython 3.11 at its full speed.  Corrected this
way, the streams of those ten minutes spread by 3 % of their median
instead of 28 %.

The probe allocates no object the garbage collector tracks, so a
collection never starts inside it.  It runs twice and only the second
round is timed, so the caches the engine's queries evicted are warm
again: timed cold, after sweeping a few hundred MiB, it read 8-15 %
slower; timed warm, within 2 %.  Nothing the program under test does
changes the probe's work.
"""

from __future__ import annotations

import bisect
import heapq
import threading
import time

import numpy as np

#: The probe's CPU time on the reference machine at full speed (the
#: fastest of thousands of probes there).
REFERENCE_PROBE_S = 1.45e-3

_GRID = 24
_INT_STEPS = 6000
_NUMPY_STEPS = 60
_NODE_BITS = 12


class Speedometer:
    """Probes the machine's speed and converts wall intervals into
    reference seconds.  Safe to probe from several threads."""

    def __init__(self):
        # A grid with diagonals and fixed pseudo-random integer
        # weights in CSR form: edges are packed (weight, node) ints.
        n = _GRID
        self._indptr, self._edges = [0], []
        for r in range(n):
            for c in range(n):
                for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0), (1, 1), (-1, -1)):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < n and 0 <= cc < n:
                        weight = 1000 + (rr * 7919 + cc * 104729 + r * 31) % 1000
                        self._edges.append((weight << _NODE_BITS) | (rr * n + cc))
                self._indptr.append(len(self._edges))
        self._unreached = [1 << 60] * (n * n)
        self._points = np.random.default_rng(1).random((256, 2))
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(perf_counter time, speed factor)`` of every probe, sorted.
        self.marks: list[tuple[float, float]] = []

    def _scratch(self):
        # Per-thread search state, allocated once.
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = (list(self._unreached), [])
        return scratch

    def _work(self) -> None:
        # Only ints, floats, range iterators and numpy arrays are
        # created here, none of which the collector tracks.
        s = 0
        for i in range(_INT_STEPS):
            s = (s + i * i) % 1000003
        dist, heap = self._scratch()
        dist[:] = self._unreached
        dist[0] = 0
        heap.clear()
        heap.append(0)
        mask = (1 << _NODE_BITS) - 1
        indptr, edges = self._indptr, self._edges
        while heap:
            item = heapq.heappop(heap)
            d, u = item >> _NODE_BITS, item & mask
            if d > dist[u]:
                continue
            for j in range(indptr[u], indptr[u + 1]):
                edge = edges[j]
                v = edge & mask
                nd = d + (edge >> _NODE_BITS)
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd << _NODE_BITS) | v)
        xs, ys = self._points[:, 0], self._points[:, 1]
        for i in range(_NUMPY_STEPS):
            float(np.hypot(xs - xs[i], ys - ys[i]).min())

    def probe(self) -> float:
        """Time the probe once; returns the speed factor (above 1 when
        the machine runs faster than the reference)."""
        # Untimed first round: after a query that swept a lot of
        # memory, a cold probe ran about a tenth slower.
        self._work()
        start = time.thread_time()
        self._work()
        factor = REFERENCE_PROBE_S / (time.thread_time() - start)
        mark = (time.perf_counter(), factor)
        with self._lock:
            bisect.insort(self.marks, mark)
        return factor

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds in the ``perf_counter`` interval
        ``[start, end]``: the speed factor, linear between probes and
        constant beyond the first and last one, integrated."""
        with self._lock:
            marks = list(self.marks)
        times = [t for t, _f in marks]
        lo = bisect.bisect_right(times, start)
        hi = bisect.bisect_left(times, end)
        xs = [start, *times[lo:hi], end]
        ys = np.interp(xs, times, [f for _t, f in marks])
        return float(sum((x1 - x0) * (y0 + y1) / 2
                         for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])))
