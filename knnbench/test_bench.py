"""Tests of the benchmark's own logic.

Run with ``PYTHONPATH=src python -m pytest knnbench -q``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class Clock:
    """A clock the test sets by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.tail_percentiles(99) == []
    assert measure.tail_percentiles(100) == [90]
    assert measure.tail_percentiles(999) == [90]
    assert measure.tail_percentiles(1000) == [90, 99]


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert measure.percentile(values, 50) == 3.0
    assert measure.percentile(values, 90) == pytest.approx(4.6)
    assert measure.percentile(values, 100) == 5.0


def test_reference_seconds_integrate_the_interpolated_speed():
    meter = speed.Speedometer()
    meter.marks = [(0.0, 1.0), (1.0, 2.0), (2.0, 1.0), (10.0, 3.0)]
    assert meter.seconds(0.0, 2.0) == pytest.approx(3.0)
    assert meter.seconds(3.0, 5.0) == pytest.approx(2 * 1.5)
    # Constant beyond the first and the last probe.
    assert meter.seconds(-5.0, 0.0) == pytest.approx(5.0)
    assert meter.seconds(10.0, 12.0) == pytest.approx(6.0)


def test_probe_reports_its_speed_and_allocates_nothing_tracked():
    import gc

    meter = speed.Speedometer()
    meter.probe()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        factor = meter.probe()
        # The one tracked object is the mark tuple, made after timing.
        assert gc.get_count()[0] - before <= 1
    finally:
        if enabled:
            gc.enable()
    assert factor > 0
    assert [f for _t, f in meter.marks][-1] == factor


def test_self_time_of_nested_spans():
    clock = Clock()
    tracer = spans.Tracer(clock=clock)
    root = tracer.enter("core.engine")
    clock.now = 1.0
    child = tracer.enter("core.mr3")
    clock.now = 2.0
    leaf = tracer.enter("storage")
    clock.now = 3.0
    tracer.exit(leaf)
    clock.now = 4.0
    tracer.exit(child)
    clock.now = 5.0
    other = tracer.enter("spatial")
    clock.now = 7.0
    tracer.exit(other)
    clock.now = 10.0
    tracer.exit(root)
    self_s = spans.self_times(tracer.spans)
    assert self_s == {root.id: 5.0, child.id: 2.0, leaf.id: 1.0, other.id: 2.0}
    assert {s.query for s in tracer.spans} == {root.query}


def test_self_time_with_children_on_two_other_threads():
    """Two pool threads work for one query: their spans are adopted
    by the query's root and share the time they overlap."""
    clock = Clock()
    tracer = spans.Tracer(clock=clock)
    root = tracer.enter("shard")
    entered = [threading.Event(), threading.Event()]
    leave = [threading.Event(), threading.Event()]
    made = {}

    def worker(i, layer):
        made[i] = tracer.enter(layer)
        entered[i].set()
        assert leave[i].wait(10)
        tracer.exit(made[i])

    threads = [
        threading.Thread(target=worker, args=(0, "build.mesh")),
        threading.Thread(target=worker, args=(1, "build.dmtm")),
    ]
    clock.now = 2.0
    threads[0].start()
    assert entered[0].wait(10)
    clock.now = 4.0
    threads[1].start()
    assert entered[1].wait(10)
    clock.now = 6.0
    leave[0].set()
    threads[0].join(10)
    clock.now = 8.0
    leave[1].set()
    threads[1].join(10)
    assert not any(t.is_alive() for t in threads)
    clock.now = 10.0
    tracer.exit(root)

    assert made[0].parent == root.id and made[1].parent == root.id
    assert made[0].query == made[1].query == root.query
    self_s = spans.self_times(tracer.spans)
    assert self_s[root.id] == pytest.approx(4.0)
    assert self_s[made[0].id] == pytest.approx(3.0)
    assert self_s[made[1].id] == pytest.approx(3.0)


def _random_tree(rng, spans_out, parent, start, end, depth):
    """Nested spans inside [start, end]; siblings may overlap, as
    spans adopted from pool threads do."""
    for _ in range(rng.randint(0, 3) if depth < 4 else 0):
        a, b = sorted(rng.uniform(start, end) for _ in range(2))
        span = spans.Span(len(spans_out), "x", "", a, parent, 0, 0, "query")
        span.end = b
        spans_out.append(span)
        _random_tree(rng, spans_out, span.id, a, b, depth + 1)


@pytest.mark.parametrize("seed", range(20))
def test_self_times_partition_the_root_span(seed):
    rng = random.Random(seed)
    root = spans.Span(0, "core.engine", "", 0.0, None, 0, 0, "query")
    root.end = 100.0
    members = [root]
    _random_tree(rng, members, root.id, 0.0, 100.0, 0)
    self_s = spans.self_times(members)
    assert sum(self_s.values()) == pytest.approx(root.duration)
    assert min(self_s.values()) >= 0.0


def test_install_wraps_and_restores_and_reports_missing():
    from repro.terrain.mesh import TriangleMesh

    original = TriangleMesh.__dict__["from_dem"]
    tracer = spans.Tracer()
    restore, missing = spans.install(tracer, (
        ("build.mesh", "repro.terrain.mesh:TriangleMesh.from_dem"),
        ("gone", "repro.terrain.mesh:TriangleMesh.no_such_method"),
        ("gone", "repro.no_such_module:thing"),
    ))
    try:
        TriangleMesh.from_dem(workloads.WORKLOADS["tiled_scale"].make_dem())
    finally:
        spans.uninstall(restore)
    assert missing == [
        "repro.terrain.mesh:TriangleMesh.no_such_method",
        "repro.no_such_module:thing",
    ]
    assert [s.layer for s in tracer.spans] == ["build.mesh"]
    assert TriangleMesh.__dict__["from_dem"] is original


def test_every_target_exists():
    restore, missing = spans.install(spans.Tracer())
    spans.uninstall(restore)
    assert missing == []


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.verdict(base, list(base), "lower", 0.1) == "OK"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "REGRESSION"
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1) == "IMPROVED"
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "IMPROVED"
    noisy = [7.0, 13.0, 9.0, 11.0, 10.0]
    assert compare.verdict(base, noisy, "lower", 0.1) == "UNRESOLVED"
    # Wide spread, but every new run beats every base run.
    assert compare.verdict([20.0, 30.0, 25.0], [5.0, 8.0, 6.0], "lower", 0.1) == "IMPROVED"


def _record(name, **values):
    metrics = {e["name"]: {"value": 1.0, "unit": e["unit"]} for e in SPEC["end_to_end"]}
    for metric, value in values.items():
        metrics[metric]["value"] = value
    return {"workload": name, "failed": 0, "metrics": metrics}


def test_compare_reads_both_record_shapes(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps(
        {"workloads": {"rugged_knn": _record("rugged_knn", qps=10.0)}}))
    (tmp_path / "b.json").write_text(json.dumps(
        dict(_record("rugged_knn", qps=5.0), failed=1)))
    rows = compare.compare(
        compare.load_records([tmp_path / "a.json"]),
        compare.load_records([tmp_path / "b.json"]),
        SPEC,
    )
    verdicts = {metric: v for _w, metric, _b, _n, v in rows}
    assert verdicts["qps"] == "REGRESSION"
    assert verdicts["setup_s"] == "OK"
    assert verdicts["failed"] == "REGRESSION"


def test_compare_flags_answers_that_stop_converging():
    """One more unconverged answer in 110 is a regression, although
    the answer still passes the tie-tolerant oracles."""
    base = {"dense_point": [_record("dense_point", converged_frac=100 / 110)] * 3}
    new = {"dense_point": [_record("dense_point", converged_frac=99 / 110)] * 3}
    verdicts = {metric: v for _w, metric, _b, _n, v in compare.compare(base, new, SPEC)}
    assert verdicts["converged_frac"] == "REGRESSION"
    assert verdicts["qps"] == "OK"


def test_compare_counts_a_crashed_run_as_failed():
    base = {"rugged_knn": [_record("rugged_knn")] * 3}
    crashed = run.crashed("rugged_knn", quick=False, returncode=1)
    rows = compare.compare(base, {"rugged_knn": [crashed]}, SPEC)
    assert [(metric, v) for _w, metric, _b, _n, v in rows] == [("failed", "REGRESSION")]


def test_run_all_reports_a_crashed_workload_and_goes_on(monkeypatch, capsys):
    """A workload whose process dies leaves no record; the others
    still run and the last line is still the summary."""
    names = [w["name"] for w in SPEC["workloads"]]

    def fake_run(cmd, **_kwargs):
        name = cmd[cmd.index("--workload") + 1]
        if name != "hot_batch":
            record = dict(_record(name), correct=True, attempted=3)
            Path(cmd[cmd.index("--out") + 1]).write_text(json.dumps(record))
            return subprocess.CompletedProcess(cmd, 0, stdout="")
        return subprocess.CompletedProcess(cmd, -9, stdout="")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    args = run.parse_args(["--seed", "1"])
    assert run.run_all(args, SPEC) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "hot_batch FAILED exit code -9, no result" in lines
    last = json.loads(lines[-1])
    hot = workloads.WORKLOADS["hot_batch"]
    assert last["correct"] is False
    assert last["failed"] == hot.size()
    assert last["attempted"] == 3 * (len(names) - 1) + hot.size()
    assert {key.split(".")[0] for key in last["metrics"]} == set(names) - {"hot_batch"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_streams_are_seeded_and_share_one_population(name):
    workload = workloads.WORKLOADS[name]
    dem = workload.make_dem()
    one = workload.stream(dem, 1)
    assert one == workload.stream(dem, 1)
    two = workload.stream(dem, 2)
    assert one != two
    assert sorted(one) == sorted(two)
    population = workload.population(dem)
    assert len(population) == workload.size()
    assert len(one) == workload.rounds * len(population)
    assert len(workload.population(dem, quick=True)) == workload.size(quick=True)
    assert workloads.centre_vertex(dem) not in {v for v, _k in one}
    assert {k for _v, k in one} <= set(workload.ks)
    if workload.kind != "batch":
        assert len(set(population)) == len(population)


def test_hot_batch_passes_send_their_own_orders():
    workload = workloads.WORKLOADS["hot_batch"]
    dem = workload.make_dem()
    streams = workload.streams(dem, 1, 3)
    assert streams == workload.streams(dem, 1, 3)
    assert len({tuple(s) for s in streams}) == 3
    for stream in streams:
        assert sorted(stream) == sorted(streams[0])
        # Every hot vertex sees its k values in the same sequence.
        for vertex in {v for v, _k in stream}:
            assert ([k for v, k in stream if v == vertex]
                    == [k for v, k in streams[0] if v == vertex])
    rugged = workloads.WORKLOADS["rugged_knn"]
    one, two = rugged.streams(rugged.make_dem(), 1, 2)
    assert one is two


def test_aligned_matches_repeated_queries_in_order():
    first = [(1, 2), (2, 3), (1, 4), (1, 2)]
    other = [(2, 3), (1, 2), (1, 4), (1, 2)]
    outcomes = [measure.Outcome(name, 0.0, None) for name in "abcd"]
    sent = measure.Pass(0.0, 0.0, 0.0, outcomes, [], {})
    got = measure.aligned(sent, other, first)
    assert [o.result for o in got.outcomes] == ["b", "a", "c", "d"]
    assert measure.aligned(sent, first, first) is sent


def test_zipf_counts_sum_and_decrease():
    counts = workloads.zipf_counts(60, 8)
    assert sum(counts) == 60
    assert counts == sorted(counts, reverse=True)


def test_fingerprints_are_pinned_and_match():
    for name, workload in workloads.WORKLOADS.items():
        dem = workload.make_dem()
        assert workloads.dem_fingerprint(dem) == workloads.FINGERPRINTS[name]["dem"]


def test_declared_metrics_are_well_formed():
    names = [e["name"] for e in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _run(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick", *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )


def _printed(stdout: str) -> set[str]:
    return {line.split()[0] for line in stdout.splitlines()[:-1] if line}


def test_quick_run_prints_every_end_to_end_metric():
    proc = _run("--seed", "1")
    assert proc.returncode == 0, proc.stdout
    printed = _printed(proc.stdout)
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    for name in workloads.WORKLOADS:
        for entry in SPEC["end_to_end"]:
            assert f"{name}.{entry['name']}" in printed
            assert f"{name}.{entry['name']}" in last["metrics"]


def test_quick_trace_prints_every_per_layer_metric():
    proc = _run("--seed", "1", "--workload", "tiled_scale", "--trace", "1")
    assert proc.returncode == 0, proc.stdout
    printed = _printed(proc.stdout)
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {e["name"] for e in SPEC["per_layer"]}
    for entry in SPEC["per_layer"]:
        assert f"tiled_scale.{entry['name']}" in printed
