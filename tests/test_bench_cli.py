"""Tests for the bench CLI and the experiment runner plumbing."""

import pytest

from repro.bench.__main__ import main
from repro.bench.runner import format_table, run_experiment


class TestRunner:
    def test_run_experiment_prints_tables(self, capsys):
        def fake_experiment(quick=False):
            return {"tables": ["HEADER\nrow"], "rows": [1, 2]}

        out = run_experiment(fake_experiment, quick=True)
        captured = capsys.readouterr().out
        assert "HEADER" in captured
        assert "fake_experiment completed" in captured
        assert out["rows"] == [1, 2]

    def test_format_table_empty_rows(self):
        table = format_table("T", ["a"], [])
        assert "T" in table

    def test_format_small_floats(self):
        table = format_table("T", ["v"], [{"v": 0.1234567}])
        assert "0.123" in table


class TestCli:
    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "fig7" in capsys.readouterr().out

    def test_runs_quick_figure(self, capsys, monkeypatch):
        # Patch the experiment table so the CLI test stays fast.
        import repro.bench.__main__ as cli

        called = {}

        def fake(quick=False):
            called["quick"] = quick
            return {"tables": ["ok"], "rows": []}

        monkeypatch.setitem(cli._FIGURES, "fig7", fake)
        assert main(["fig7", "--quick"]) == 0
        assert called["quick"] is True
        assert "ok" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["shard"], "BENCH_GEODESIC.json"),
            (["shard", "--quick"], "bench-smoke.json"),
            (["shard", "--quick", "--out", "mine.json"], "mine.json"),
        ],
    )
    def test_quick_runs_keep_the_tracked_record(self, argv, out, monkeypatch):
        """Only a full-size run writes the tracked record by default."""
        import repro.bench.__main__ as cli

        called = {}

        def fake(quick=False, out=None):
            called["out"] = out
            return {"tables": [], "rows": []}

        monkeypatch.setitem(cli._FIGURES, "shard", fake)
        assert main(argv) == 0
        assert called["out"] == out
