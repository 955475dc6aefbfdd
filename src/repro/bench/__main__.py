"""Command-line entry point: ``python -m repro.bench <figure> [--quick]``.

Figures: fig7, fig8, fig9, fig10, fig11, related, batch, faults,
chaos, kernels, landmarks, shard, all.  The ``batch`` mode takes ``--batch N
--workers W`` and reports throughput / latency percentiles of the
concurrent executor against the sequential baseline.  The ``faults``
mode sweeps injected storage fault rates and per-query page budgets,
reporting retry/corruption counters and degraded-answer rates
(``--workers`` applies here too).  The ``chaos`` mode sweeps
*persistent* dead-page fractions (kill-list faults that never
recover) and reports availability, storage-degraded rates, quarantine
activity and engine health — the degraded-mode execution contract.  The ``kernels`` mode times the
dict reference kernels against the heap CSR kernels and, for the
multi-source and full-sweep shapes, the bucketed frontier kernel;
the broadcast MSDN lower-bound DP against the
per-coordinate hop kernel, the DP dummy-lb screen against the
witness-chain screen, per-page reads against run reads of
the same captured page runs, and the object MSDN build and per-pair
QEM collapse against the column-wise MSDN build and the collapse with
fused merge costs, the by-record DMTM attach and the mesh adjacency
loops against their array builds (micro rows); the ``landmarks`` mode runs
the fig10 k-sweep with ALT landmark pruning on vs off, reporting the
one-off index build separately; the ``shard``
mode asserts the tiled
:class:`~repro.shard.ShardedEngine` answers identically to the
monolithic engine and runs a
sharded-only scale sweep (257x257, 1e4 objects).  All three merge
their series into the ``repro.bench/v1`` document at ``--out``
(default the tracked full-size record ``BENCH_GEODESIC.json``, or the
git-ignored ``bench-smoke.json`` with ``--quick``, so a quick run never
overwrites the record).  ``--profile-out PATH`` additionally runs
every query under a profiling context and writes one
``repro.profile/v1`` record per query — two such files diff with
``python -m repro.obs.diff``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import experiments
from repro.bench.runner import experiment_records, run_experiment

_FIGURES = {
    "fig7": experiments.fig7,
    "fig8": experiments.fig8,
    "fig9": experiments.fig9,
    "fig10": experiments.fig10,
    "fig11": experiments.fig11,
    "related": experiments.related,
    "batch": experiments.batch,
    "faults": experiments.faults,
    "chaos": experiments.chaos,
    "kernels": experiments.kernels,
    "landmarks": experiments.landmarks,
    "shard": experiments.shard,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures as tables.",
    )
    parser.add_argument(
        "figure", choices=sorted(_FIGURES) + ["all"], help="which figure to run"
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweeps (CI-sized)"
    )
    parser.add_argument(
        "--batch",
        type=int,
        metavar="N",
        default=None,
        help="batch mode: number of queries in the batch",
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="W",
        default=4,
        help="batch mode: thread-pool size (default 4)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="kernels/landmarks/shard modes: where to write (or merge "
        "into) the repro.bench/v1 JSON document (default "
        "BENCH_GEODESIC.json, or bench-smoke.json with --quick)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write one JSONL record per experiment point to PATH",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="run every query under a profiling ObsContext and write "
        "one repro.profile/v1 JSON record per query to PATH "
        "(feed two such files to python -m repro.obs.diff)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = "bench-smoke.json" if args.quick else "BENCH_GEODESIC.json"
    names = sorted(_FIGURES) if args.figure == "all" else [args.figure]
    if args.metrics_out or args.profile_out:
        from repro.obs.export import write_jsonl

        for path in (args.metrics_out, args.profile_out):
            if not path:
                continue
            try:  # fail on a bad path now, not after the sweep
                write_jsonl(path, [])
            except OSError as exc:
                parser.error(f"cannot write to {path!r}: {exc}")
    obs = None
    if args.profile_out:
        from repro.obs.context import ObsContext

        # One context for the whole run: the drivers reuse it (they
        # prefer an ambient profiling context over a local one), so
        # every finished query profile lands in obs.
        obs = ObsContext("bench", profiling=True)
    records = []
    for name in names:
        kwargs = {"quick": args.quick}
        if name == "batch":
            kwargs["workers"] = args.workers
            if args.batch is not None:
                kwargs["batch"] = args.batch
        elif name in ("faults", "chaos"):
            kwargs["workers"] = args.workers
        elif name in ("kernels", "landmarks", "shard"):
            kwargs["out"] = args.out
        if obs is not None:
            with obs.activate():
                result = run_experiment(_FIGURES[name], **kwargs)
        else:
            result = run_experiment(_FIGURES[name], **kwargs)
        if args.metrics_out:
            records.extend(experiment_records(name, result))
    if args.metrics_out:
        count = write_jsonl(args.metrics_out, records)
        print(f"[wrote {count} records to {args.metrics_out}]")
    if obs is not None:
        from repro.obs.export import write_jsonl
        from repro.obs.profile import profile_record

        profiles = obs.take_profiles()
        count = write_jsonl(
            args.profile_out, [profile_record(p) for p in profiles]
        )
        print(f"[wrote {count} profile records to {args.profile_out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
