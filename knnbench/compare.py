"""Compare two sets of benchmark results metric by metric.

    python3 knnbench/compare.py --base BASE.json... --new NEW.json...

Each file is a ``run.py --out`` record, of one workload or of all.
For every (workload, end-to-end metric) row it prints each side's
median and quartiles and one verdict, using the bounds in
``BENCHMARK.json``:

* ``REGRESSION``: the new median is worse by more than the bound;
* ``IMPROVED``: the new median is better by more than the base
  side's own spread, and the new runs win at least nine tenths of all
  (base, new) pairs;
* ``UNRESOLVED``: a side's spread (quartile distance over median)
  exceeds the bound and the runs do not separate, i.e. neither side
  beats every run of the other;
* ``OK``: none of the above.

A row for failed queries is added per workload: any rise in the
number of failed queries is a regression.  A crashed run has no
metrics and counts all its queries as failed.  The exit code is 1 when any
row is a ``REGRESSION`` or ``UNRESOLVED``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(paths) -> dict[str, list[dict]]:
    """workload -> list of single-workload records."""
    out: dict[str, list[dict]] = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        for record in doc["workloads"].values() if "workloads" in doc else [doc]:
            out.setdefault(record["workload"], []).append(record)
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better: str, bound: float) -> str:
    """The verdict for one metric; ``better`` is ``lower``/``higher``."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = statistics.median(base), statistics.median(new)
    worse = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    new_wins = sum(sign * (b - n) > 0 for b in base for n in new)
    base_wins = sum(sign * (n - b) > 0 for b in base for n in new)
    pairs = len(base) * len(new)
    separated = new_wins == pairs or base_wins == pairs
    if max(spread(base), spread(new)) > bound and not separated:
        return "UNRESOLVED"
    if worse > bound:
        return "REGRESSION"
    if -worse > spread(base) and new_wins >= 0.9 * pairs:
        return "IMPROVED"
    return "OK"


def compare(base: dict, new: dict, spec: dict) -> list[tuple]:
    """Rows of (workload, metric, base quartiles, new quartiles, verdict)."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for entry in spec["end_to_end"]:
            name = entry["name"]
            # A crashed run has no metrics; its failed count carries it.
            b = [r["metrics"][name]["value"] for r in base[workload]
                 if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[workload]
                 if name in r["metrics"]]
            if not b or not n:
                continue
            rows.append((workload, name, quartiles(b), quartiles(n),
                         verdict(b, n, entry["better"], entry["bound"])))
        b = [r["failed"] for r in base[workload]]
        n = [r["failed"] for r in new[workload]]
        rows.append((workload, "failed", quartiles(b), quartiles(n),
                     "REGRESSION" if max(n) > max(b) else "OK"))
    return rows


def fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_records(args.base), load_records(args.new), spec)
    print(f"{'workload':<12} {'metric':<16} {'base median [q1, q3]':<32} "
          f"{'new median [q1, q3]':<32} verdict")
    for workload, metric, bq, nq, v in rows:
        print(f"{workload:<12} {metric:<16} {fmt(bq):<32} {fmt(nq):<32} {v}")
    return 1 if any(r[-1] in ("REGRESSION", "UNRESOLVED") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
