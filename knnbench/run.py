"""Surface k-NN benchmark: four closed-loop workloads, checked answers.

Run every workload, each in a fresh subprocess, one after another::

    python3 knnbench/run.py --seed 1 [--out result.json]

or one workload in this process::

    python3 knnbench/run.py --workload rugged_knn --seed 1

``--trace 1`` reports the per-layer metrics instead of the end-to-end
ones, ``--quick`` shrinks every stream to a fifth.  Every metric is
printed as ``workload.metric value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the metrics ``BENCHMARK.json`` declares).  The exit code is 1 when
any answer or input check failed or a workload crashed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the query stream (default 1)")
    parser.add_argument("--seconds", type=float,
                        help="accepted because benchmark harnesses pass "
                             "run_seconds; the streams have fixed sizes "
                             "that take about run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced pass, "
                             "per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="a fifth of the stream, for smoke tests")
    parser.add_argument("--out", type=Path,
                        help="write the full result record here")
    return parser.parse_args(argv)


def declared(spec: dict, trace: int) -> list[dict]:
    return spec["per_layer"] if trace else spec["end_to_end"]


def print_metrics(name: str, metrics: dict) -> None:
    for metric, entry in metrics.items():
        print(f"{name}.{metric} {entry['value']:.6g} {entry['unit']}")


def summary_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    })


def run_one(args, spec) -> int:
    import measure

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = None
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    record = measure.run(args.workload, args.seed, args.quick,
                         bool(args.trace), spans_path)
    print_metrics(args.workload, record["metrics"])
    for path in record["missing_targets"]:
        print(f"{args.workload}.trace missing {path}")
    for line in record["problems"] + record["failures"]:
        print(f"{args.workload} FAILED {line}")
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    wanted = {}
    for entry in declared(spec, args.trace):
        got = record["metrics"][entry["name"]]
        if got["unit"] != entry["unit"]:
            raise SystemExit(f"{entry['name']}: unit {got['unit']} != "
                             f"declared {entry['unit']}")
        wanted[entry["name"]] = got
    print(summary_line(record["correct"], record["attempted"],
                       record["failed"], wanted))
    return 0 if record["correct"] else 1


def crashed(name: str, quick: bool, returncode: int) -> dict:
    """The record of a workload whose process ended without one: every
    query counts as failed and no metric is reported."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    n = workload.rounds * workload.size(quick)
    return {"workload": name, "correct": False, "attempted": n, "failed": n,
            "problems": [f"exit code {returncode}, no result"], "metrics": {}}


def run_all(args, spec) -> int:
    """Each workload in its own subprocess, so its peak memory is
    its own."""
    records = {}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for name in (w["name"] for w in spec["workloads"]):
            out = Path(tmp) / f"{name}.json"
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(args.trace),
                   "--out", str(out)] + (["--quick"] if args.quick else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            for line in proc.stdout.splitlines():
                if not line.startswith("{"):
                    print(line, flush=True)
            if out.exists():
                records[name] = json.loads(out.read_text())
            else:
                print(f"{name} FAILED exit code {proc.returncode}, no result")
                records[name] = crashed(name, args.quick, proc.returncode)
    metrics = {}
    for name, record in records.items():
        for entry in declared(spec, args.trace):
            if entry["name"] in record["metrics"]:
                metrics[f"{name}.{entry['name']}"] = record["metrics"][entry["name"]]
    correct = all(r["correct"] for r in records.values())
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "quick": args.quick, "trace": args.trace,
             "workloads": records}, indent=1) + "\n")
    print(summary_line(correct, sum(r["attempted"] for r in records.values()),
                       sum(r["failed"] for r in records.values()), metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload:
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            print(f"error: --workload must be one of {', '.join(names)}",
                  file=sys.stderr)
            return 2
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
