"""Smoke tests for the bench harness (tiny sweeps, shape checks)."""

import pytest

from repro.bench.experiments import fig7, fig8, fig9, fig10, fig11
from repro.bench.runner import experiment_records, format_table
from repro.bench.workload import build_engine, dataset, mesh_for, query_vertices, vertex_pairs
from repro.errors import QueryError


class TestWorkload:
    def test_dataset_names(self):
        assert dataset("BH", 9).rows == 9
        assert dataset("EP", 9).rows == 9
        with pytest.raises(QueryError):
            dataset("XX")

    def test_mesh_cached(self):
        assert mesh_for("BH", 9) is mesh_for("BH", 9)

    def test_engine_cached(self):
        a = build_engine("BH", size=9, density=10.0)
        b = build_engine("BH", size=9, density=10.0)
        assert a is b

    def test_query_vertices_deterministic(self):
        mesh = mesh_for("BH", 17)
        assert query_vertices(mesh, 3, seed=1) == query_vertices(mesh, 3, seed=1)

    def test_vertex_pairs_separated(self):
        import numpy as np

        mesh = mesh_for("BH", 17)
        diag = float(np.linalg.norm(mesh.xy_bounds().extents))
        for a, b in vertex_pairs(mesh, 4, min_separation=0.3):
            d = float(np.linalg.norm(mesh.vertices[a][:2] - mesh.vertices[b][:2]))
            assert d >= 0.3 * diag


class TestFormatTable:
    def test_alignment_and_values(self):
        table = format_table(
            "T", ["x", "y"], [{"x": 1, "y": 1234.5}, {"x": 2, "y": None}]
        )
        assert "T" in table
        assert "1,234" in table  # thousands formatting
        assert "-" in table  # None placeholder


class TestExperimentShapes:
    """Miniature sweeps asserting the paper's qualitative shapes."""

    def test_fig7_exact_grows_faster(self):
        out = fig7(sizes=(9, 17), pairs_per_size=1)
        rows = out["rows"]
        assert rows[-1]["ch_seconds"] > rows[0]["ch_seconds"]
        # Exact is never cheaper than the approximation at the top size.
        assert rows[-1]["ch_seconds"] >= rows[-1]["ea_seconds"]

    def test_fig8_accuracy_monotone(self):
        out = fig8(quick=True, size=17, num_pairs=3)
        rows = out["rows"]
        # Accuracy grows with DMTM resolution for the best SDN column.
        best = [row["sdn_100%"] for row in rows]
        assert best == sorted(best)
        # SDN beats the Euclidean baseline at full resolution.
        assert rows[-1]["sdn_100%"] >= rows[-1]["euclid_lb"]

    def test_fig9_integration_saves_pages(self):
        out = fig9(quick=True, size=17, ks=(6,), queries_per_k=1)
        row = out["rows"][0]
        assert row["pages_on"] <= row["pages_off"]
        # Per-structure breakdown of the integrated run.
        assert row["pages_dmtm"] + row["pages_msdn"] <= row["pages_on"]

    def test_fig10_series_present(self):
        out = fig10(
            quick=True, size=17, ks=(4,), queries_per_k=1, datasets=("BH",)
        )
        series = out["rows"]["BH"][4]
        assert set(series) == {"s=1", "s=2", "s=3", "EA"}
        for metrics in series.values():
            assert metrics["pages"] > 0
            assert metrics["cpu"] > 0

    def test_fig11_density_reduces_cost(self):
        out = fig11(
            quick=True, size=17, k=3, densities=(4, 10), queries_per_o=1,
            datasets=("BH",),
        )
        per_o = out["rows"]["BH"]
        assert set(per_o) == {4, 10}

    def test_experiment_records_flatten_both_shapes(self):
        # List-shaped rows (fig7/8/9, related) -> one record per row.
        flat = experiment_records("fig9", {"rows": [{"k": 3}, {"k": 6}]})
        assert [r["point"] for r in flat] == [{"k": 3}, {"k": 6}]
        # Nested rows (fig10/11) -> one record per (dataset, x) point.
        nested = experiment_records(
            "fig10", {"rows": {"BH": {4: {"s=1": {"pages": 2.0}}}}}
        )
        (record,) = nested
        assert record["dataset"] == "BH" and record["x"] == 4
        for r in flat + nested:
            assert r["schema"] == "repro.bench/v1"
            assert r["figure"] in ("fig9", "fig10")
            assert "point" in r

    def test_related_experiment(self):
        from repro.bench.experiments import related

        out = related(quick=True, size=17, k=3)
        rows = {row["method"]: row for row in out["rows"]}
        assert rows["exact surface"]["agreement"] == 1.0
        # MR3 matches the exact answer at least as often as the
        # network baselines once ties are tolerated.
        assert (
            rows["MR3 s=1"]["agreement_3pct"]
            >= rows["INE (network)"]["agreement_3pct"]
        )


class TestTrackedPerfRecord:
    """The checked-in ``BENCH_GEODESIC.json`` is a full-size run with
    identical answers in every row: quick runs (CI smokes) write to an
    untracked file, so a quick document here means one was checked in
    by mistake."""

    @pytest.fixture(scope="class")
    def document(self):
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "BENCH_GEODESIC.json"
        return json.loads(path.read_text(encoding="utf-8"))

    def test_full_size_in_every_params_subtree(self, document):
        params = document["params"]
        assert params["quick"] is False
        assert params["landmarks"]["quick"] is False
        assert params["shard"]["quick"] is False

    def test_every_row_identical(self, document):
        """Each row's asserted identity: a micro row's answers equal
        its oracle's, landmark and sharded runs answer with the same
        neighbour sets (and flags) as the baseline.  Landmark pruning
        changes intervals, reads and tie order by design, so those
        flags are reported, not required."""
        rows = document["rows"]
        for series, flags in (
            ("kernels", ("identical",)),
            ("landmarks", ("identical_results",)),
            ("shard_identity", ("identical_results", "identical_flags")),
        ):
            assert rows[series], series
            for row in rows[series]:
                assert all(row[flag] is True for flag in flags), row
