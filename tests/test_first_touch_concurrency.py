"""Concurrent first touches of the lazily built shared structures.

MSDN chunk arrays, their chunk-key codes and page segments, and the
DMTM page arrays are built with the structures and storage; what is
still built on first use and shared afterwards is the DDM record
arrays, the DDM's compiled cut per collapse step (every cut-level
extraction of every worker searches it in place), the CSR list
mirrors and the round-0 pathnet cached on the mesh.  Eight workers
start on a fresh engine at once, with the interpreter switching
threads as often as it can, so those first touches race.  The
answers must still match a sequential run on another fresh engine.

The lazy builds that publish several arrays, or one index, are also
raced deterministically: the building thread is held right after its
first store, and a second thread reads meanwhile.  It must see either
nothing (and build its own) or the complete set.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.core.batch import BatchQueryExecutor
from repro.core.engine import SurfaceKNNEngine
from repro.geodesic.csr import CSRGraph
from repro.multires.ddm import DistanceDirectMesh
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


class _Hold:
    """Pauses one thread right after its first attribute store on a
    :func:`_held` object, until released."""

    def __init__(self):
        self.builder: int | None = None
        self.stored = threading.Event()
        self.release = threading.Event()


def _held(cls, hold: _Hold):
    """Subclass of ``cls`` whose first attribute store made on the
    builder thread blocks until ``hold.release`` is set — a lazy build
    caught between its first and last publication."""

    def __setattr__(self, name, value):
        cls.__setattr__(self, name, value)
        if threading.get_ident() == hold.builder and not hold.stored.is_set():
            hold.stored.set()
            hold.release.wait(TIMEOUT_S)

    return type(f"Held{cls.__name__}", (cls,),
                {"__slots__": (), "__setattr__": __setattr__})


def _race(obj, hold: _Hold, call):
    """``call(obj)`` on a builder thread held at its first publication,
    and meanwhile on this thread; returns (builder's, reader's)."""
    results: dict = {}

    def build():
        hold.builder = threading.get_ident()
        results["builder"] = call(obj)

    builder = threading.Thread(target=build, daemon=True)
    builder.start()
    try:
        assert hold.stored.wait(TIMEOUT_S), "the build never published"
        reader = call(obj)
    finally:
        hold.release.set()
        builder.join(TIMEOUT_S)
    assert not builder.is_alive()
    return results["builder"], reader


def test_ddm_record_arrays_publish_whole(rough_mesh):
    plain = DistanceDirectMesh(rough_mesh)
    cut = plain.cut_node_ids(plain.step_for_fraction(0.5))
    want = plain.cut_edge_arrays(cut)
    hold = _Hold()
    ddm = _held(DistanceDirectMesh, hold)(rough_mesh, history=plain.history)
    for got in _race(ddm, hold, lambda d: d.cut_edge_arrays(cut)):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_csr_lists_publish_whole():
    indptr = np.array([0, 2, 3, 4], dtype=np.int64)
    indices = np.array([1, 2, 0, 0], dtype=np.int64)
    weights = np.array([1.0, 2.0, 1.0, 2.0])
    want = CSRGraph(indptr, indices, weights).lists()
    hold = _Hold()
    csr = _held(CSRGraph, hold)(indptr, indices, weights)
    for got in _race(csr, hold, lambda g: g.lists()):
        assert got == want


class _HeldDict(dict):
    """A dict whose first item store on the builder thread blocks
    until ``hold.release`` is set — an index caught right after its
    publication."""

    def __init__(self, hold: _Hold):
        super().__init__()
        self.hold = hold

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        hold = self.hold
        if threading.get_ident() == hold.builder and not hold.stored.is_set():
            hold.stored.set()
            hold.release.wait(TIMEOUT_S)


def test_ddm_cut_graph_publish_whole(rough_mesh):
    plain = DistanceDirectMesh(rough_mesh)
    step = plain.step_for_fraction(0.5)
    want = plain.compiled_cut(step)
    hold = _Hold()
    ddm = DistanceDirectMesh(rough_mesh, history=plain.history)
    ddm._cuts = _HeldDict(hold)
    for got in _race(ddm, hold, lambda d: d.compiled_cut(step)):
        assert got.step == step
        assert got.id_list == want.id_list
        for name in ("ids", "rows", "local"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.csr.lists() == want.csr.lists()
        assert np.array_equal(got.csr.positions, want.csr.positions)
