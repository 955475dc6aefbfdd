"""Concurrent first touches of the lazily built shared arrays.

Every query reads arrays that are built on first use and shared
afterwards: MSDN chunk boxes and page arrays, DMTM page arrays, the
round-0 pathnet cached on the mesh.  Eight workers start on a fresh
engine at once, with the interpreter switching threads as often as it
can, so those first touches race.  The answers must still match a
sequential run on another fresh engine.
"""

from __future__ import annotations

import sys
import threading

from repro.core.batch import BatchQueryExecutor
from repro.core.engine import SurfaceKNNEngine
from repro.terrain.synthetic import bearhead_like

#: Generous bound for the whole batch; a deadlock fails, not hangs.
TIMEOUT_S = 240.0


def _fresh_engine() -> SurfaceKNNEngine:
    # A new mesh too: the round-0 pathnet cache lives on the mesh.
    return SurfaceKNNEngine.from_dem(bearhead_like(size=17), density=10.0, seed=3)


def _fingerprint(result):
    return (
        tuple(result.object_ids),
        tuple(result.intervals),
        result.metrics.logical_reads,
    )


def test_batch_first_touch_matches_sequential():
    sequential = _fresh_engine()
    specs = [(v, 3) for v in range(5, sequential.mesh.num_vertices, 23)]
    want = [_fingerprint(sequential.query(v, k)) for v, k in specs]

    executor = BatchQueryExecutor(_fresh_engine(), workers=8)
    outcome: dict = {}

    def run():
        try:
            outcome["report"] = executor.run(specs)
        except BaseException as exc:  # surfaced below
            outcome["error"] = exc

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(TIMEOUT_S)
    finally:
        sys.setswitchinterval(previous)
    assert not worker.is_alive(), f"batch did not finish in {TIMEOUT_S} s"
    assert "error" not in outcome, outcome.get("error")
    report = outcome["report"]
    assert report.errors == []
    assert [_fingerprint(r) for r in report.results] == want
