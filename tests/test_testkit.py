"""Tests for the testkit itself: generators, oracles, differential
runner, shrinker and CLI.

The headline acceptance test (``TestBugIsCaughtAndShrunk``) injects a
known bug into the query surface, requires an oracle to catch it, and
requires the shrinker to minimize the failing scenario to a tiny
replayable case — the end-to-end contract the nightly fuzz job relies
on.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.errors import QueryError
from repro.testkit import (
    MUTATORS,
    ORACLES,
    ObjectSpec,
    OracleContext,
    Scenario,
    build_engine,
    build_mesh,
    build_objects,
    generate_scenario,
    load_case,
    replay_case,
    resolve_queries,
    run_oracles,
    run_scenario,
    scenario_fails,
    shrink_scenario,
    standard_engine,
    standard_mesh,
    with_tiles,
    write_case,
)
from repro.testkit.cli import main
from repro.testkit.oracles import (
    check_kth_interval_valid,
    check_topk_agreement,
)

CHEAP_SEED = 42  # fractal[9], 15 objects, one query — runs in <1s


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("seed", [0, 7, 42, 999])
    def test_json_round_trip_is_identity(self, seed):
        scenario = generate_scenario(seed)
        again = Scenario.from_json(scenario.to_json())
        assert again == scenario

    def test_json_is_canonical(self):
        scenario = generate_scenario(3)
        assert scenario.to_json() == Scenario.from_json(
            scenario.to_json()
        ).to_json()

    def test_unknown_schema_rejected(self):
        data = generate_scenario(1).to_dict()
        data["schema"] = "repro.testkit.scenario/v999"
        with pytest.raises(QueryError, match="schema"):
            Scenario.from_dict(data)

    def test_generation_is_deterministic(self):
        assert generate_scenario(5) == generate_scenario(5)
        assert generate_scenario(5) != generate_scenario(6)


class TestBuilders:
    def test_standard_mesh_is_cached(self):
        assert standard_mesh("BH", 13) is standard_mesh("BH", 13)

    def test_standard_engine_fresh_bypasses_cache(self):
        a = standard_engine("BH", 13, density=8.0, seed=3)
        b = standard_engine("BH", 13, density=8.0, seed=3)
        c = standard_engine("BH", 13, density=8.0, seed=3, fresh=True)
        assert a is b
        assert c is not a
        assert c.mesh is a.mesh  # the mesh stays shared

    def test_unknown_names_rejected(self):
        with pytest.raises(QueryError, match="standard mesh"):
            standard_mesh("alps")

    def test_objects_deterministic_and_distinct(self):
        scenario = generate_scenario(CHEAP_SEED)
        mesh = build_mesh(scenario.terrain)
        a = build_objects(mesh, scenario.objects)
        b = build_objects(mesh, scenario.objects)
        assert list(a.vertex_ids) == list(b.vertex_ids)
        assert len(set(a.vertex_ids)) == len(a)
        assert len(a) == scenario.objects.count

    def test_queries_resolve_with_clamped_k(self):
        scenario = generate_scenario(CHEAP_SEED)
        mesh = build_mesh(scenario.terrain)
        objects = build_objects(mesh, scenario.objects)
        for query in resolve_queries(scenario, mesh, objects):
            assert 0 <= query.vertex < mesh.num_vertices
            assert 1 <= query.k <= len(objects)

    def test_faulted_engine_requires_fault_spec(self):
        scenario = generate_scenario(CHEAP_SEED)
        assert scenario.fault is None
        with pytest.raises(QueryError, match="fault"):
            build_engine(scenario, with_faults=True)


class TestOracleCatalog:
    def test_every_oracle_documents_its_provenance(self):
        for oracle in ORACLES.values():
            assert oracle.paper_section
            assert oracle.module
            assert oracle.description

    def test_subset_selection(self):
        result = SimpleNamespace(
            object_ids=[0],
            intervals=[(1.0, 2.0)],
            degraded=False,
            converged=True,
            max_error=0.0,
            filter_trace=[],
            ranking_trace=[],
            metrics=SimpleNamespace(pages_accessed=0, logical_reads=0),
        )
        ctx = OracleContext(result=result, truth=[(0, 1.5)], k=1)
        assert run_oracles(ctx, names=["result_shape"]) == []

    def test_topk_agreement_skips_unconverged(self):
        """A query that exhausted its schedule reports best-known
        top-k; the 3 % set guarantee only applies when converged."""
        result = SimpleNamespace(
            object_ids=[5],
            intervals=[(1.0, 9.0)],
            degraded=False,
            converged=False,
        )
        ctx = OracleContext(result=result, truth=[(3, 1.0), (5, 8.0)], k=1)
        assert check_topk_agreement(ctx) == []
        converged = SimpleNamespace(
            object_ids=[5],
            intervals=[(1.0, 9.0)],
            degraded=False,
            converged=True,
        )
        assert check_topk_agreement(
            OracleContext(result=converged, truth=[(3, 1.0), (5, 8.0)], k=1)
        ) != []

    def test_kth_interval_valid_flags_inversion(self):
        event = SimpleNamespace(
            phase="ranking", level=0, kth_lb=5.0, kth_ub=1.0, done=False
        )
        result = SimpleNamespace(filter_trace=[], ranking_trace=[event])
        ctx = OracleContext(result=result, truth=[], k=1)
        assert any("inverted" in v for v in check_kth_interval_valid(ctx))


class TestDifferentialRunner:
    def test_clean_scenario_passes_everything(self):
        report = run_scenario(generate_scenario(CHEAP_SEED))
        assert report.ok
        assert "baseline" in report.modes_run
        assert "oracle" in report.modes_run
        assert "batch" in report.modes_run
        assert report.queries_run >= 1

    def test_oracle_leg_catches_a_component_bug(self, monkeypatch):
        """An MSDN bound one ulp off its reference twin must surface
        as a component_identity finding."""
        from dataclasses import replace

        import numpy as np

        from repro.msdn.msdn import MSDN

        exact = MSDN._lower_bound_at

        def one_ulp_high(self, *args):
            result = exact(self, *args)
            return replace(result, value=float(np.nextafter(result.value, np.inf)))

        monkeypatch.setattr(MSDN, "_lower_bound_at", one_ulp_high)
        report = run_scenario(generate_scenario(CHEAP_SEED), modes={"oracle"})
        assert "component_identity" in {f.violation.oracle for f in report.findings}

    def test_oracle_leg_catches_a_cut_search_bug(self, monkeypatch):
        """An in-place cut-level upper bound one ulp off its keyed-graph
        twin must surface as a component_identity finding."""
        from dataclasses import replace

        import numpy as np

        from repro.multires.dmtm import DMTM

        exact = DMTM._upper_bound_cut

        def one_ulp_high(self, *args):
            result = exact(self, *args)
            if result is None:
                return None
            return replace(result, value=float(np.nextafter(result.value, np.inf)))

        monkeypatch.setattr(DMTM, "_upper_bound_cut", one_ulp_high)
        report = run_scenario(generate_scenario(CHEAP_SEED), modes={"oracle"})
        messages = [f.violation.message for f in report.findings]
        assert any("cut upper bound (pair)" in m for m in messages), messages
        assert not any("cut upper bound (one search)" in m for m in messages)

    def test_modes_filter(self):
        report = run_scenario(
            generate_scenario(CHEAP_SEED), modes={"baseline"}
        )
        assert report.ok
        assert report.modes_run == ["baseline"]

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_known_bugs_are_caught(self, mutator):
        report = run_scenario(
            generate_scenario(CHEAP_SEED),
            mutator=mutator,
            modes={"baseline"},
        )
        assert not report.ok, f"mutator {mutator!r} escaped every oracle"


class TestBugIsCaughtAndShrunk:
    """The acceptance-criteria demonstration: an intentionally injected
    bound bug is caught by an oracle and shrunk to a tiny repro case."""

    def test_injected_bug_shrinks_to_small_replayable_case(self, tmp_path):
        scenario = generate_scenario(CHEAP_SEED)

        def fails(candidate):
            return scenario_fails(
                candidate, mutator="shrink_ub", modes={"baseline"}
            )

        assert fails(scenario), "injected bug not caught"
        outcome = shrink_scenario(scenario, fails, max_attempts=40)
        small = outcome.scenario
        assert outcome.steps >= 1
        assert small.objects.count <= 25
        assert small.objects.count <= scenario.objects.count
        assert small.terrain.size <= scenario.terrain.size
        assert fails(small), "shrunk scenario no longer fails"

        path = write_case(
            small, tmp_path, mutator="shrink_ub",
            oracles=["interval_sandwich", "result_shape"],
        )
        case = load_case(path)
        assert case["scenario"] == small
        assert case["mutator"] == "shrink_ub"
        report = replay_case(path)
        assert not report.ok
        assert any(
            f.violation.oracle == "interval_sandwich"
            for f in report.findings
        )

    def test_shrink_requires_failing_input(self):
        scenario = generate_scenario(CHEAP_SEED)
        with pytest.raises(QueryError, match="failing"):
            shrink_scenario(scenario, lambda s: False)

    def test_case_files_have_no_timestamps(self, tmp_path):
        path = write_case(generate_scenario(1), tmp_path)
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "schema", "scenario", "mutator", "oracles", "findings"
        }

    def test_non_case_json_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(QueryError, match="not a testkit case"):
            load_case(path)


class TestCLI:
    def test_list_oracles(self, capsys):
        assert main(["--list-oracles"]) == 0
        out = capsys.readouterr().out
        for name in ORACLES:
            assert name in out

    def test_smoke_seed_passes(self, tmp_path, capsys):
        code = main(
            [
                "--seed-range", f"{CHEAP_SEED}:{CHEAP_SEED + 1}",
                "--cases-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert "1/1 scenarios passed" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.json"))

    def test_expect_fail_self_check(self, tmp_path, capsys):
        code = main(
            [
                "--seed-range", f"{CHEAP_SEED}:{CHEAP_SEED + 1}",
                "--inject", "drop_worst",
                "--expect-fail",
                "--cases-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert "caught the injected bug" in capsys.readouterr().out

    def test_failure_writes_case_and_exits_nonzero(self, tmp_path, capsys):
        code = main(
            [
                "--seed-range", f"{CHEAP_SEED}:{CHEAP_SEED + 1}",
                "--inject", "drop_worst",
                "--cases-dir", str(tmp_path),
                "--max-shrink-attempts", "10",
            ]
        )
        assert code == 1
        cases = list(tmp_path.glob("*.json"))
        assert len(cases) == 1
        replay = main(["--replay", str(cases[0])])
        assert replay == 1

    def test_bad_seed_range_rejected(self):
        with pytest.raises(SystemExit):
            main(["--seed-range", "10"])
        with pytest.raises(SystemExit):
            main(["--seed-range", "5:5"])


TILED_SEED = 15  # bearhead[9], 6 objects, 1 query, tiles=2x2 — cheap


class TestShardAxis:
    """The ``shards`` differential axis: spec round trips, border
    object pressure, the ``shard_consistency`` oracle and the
    tile-collapse shrinker step."""

    def test_tiled_scenarios_round_trip(self):
        for seed in (TILED_SEED, 21):  # 2x2 and 3x3 draws
            scenario = generate_scenario(seed)
            assert scenario.terrain.tiles > 1
            assert Scenario.from_json(scenario.to_json()) == scenario

    def test_legacy_dicts_default_to_untiled(self):
        data = generate_scenario(TILED_SEED).to_dict()
        del data["terrain"]["tiles"]
        del data["objects"]["border_tiles"]
        scenario = Scenario.from_dict(data)
        assert scenario.terrain.tiles == 1
        assert scenario.objects.border_tiles == 0

    def test_border_tiles_cluster_objects_on_cut_lines(self):
        from dataclasses import replace as dc_replace

        from repro.shard import tile_cuts
        from repro.testkit import TerrainSpec

        terrain = TerrainSpec(kind="fractal", size=13, seed=3)
        mesh = build_mesh(terrain)
        spec = ObjectSpec(pattern="uniform", count=16, seed=7)
        bordered = dc_replace(spec, border_tiles=2)

        def near_cut(objects):
            cell = terrain.cell_size
            cut = tile_cuts(terrain.size, 2)[1]
            hits = 0
            for vid in objects.vertex_ids:
                r, c = divmod(vid, terrain.size)
                if abs(r - cut) <= 1 or abs(c - cut) <= 1:
                    hits += 1
            return hits

        plain = build_objects(mesh, spec)
        pressed = build_objects(mesh, bordered)
        assert near_cut(pressed) > near_cut(plain)
        again = build_objects(mesh, bordered)
        assert list(pressed.vertex_ids) == list(again.vertex_ids)

    def test_with_tiles_collapses_border_pressure_too(self):
        scenario = generate_scenario(21)  # tiles=3, border_tiles=3
        assert scenario.objects.border_tiles == 3
        down = with_tiles(scenario, 2)
        assert down.terrain.tiles == 2
        assert down.objects.border_tiles == 2
        flat = with_tiles(scenario, 1)
        assert flat.terrain.tiles == 1
        assert flat.objects.border_tiles == 0

    def test_reduction_ladder_collapses_tiles_before_terrain(self):
        from repro.testkit.shrink import _reductions

        scenario = generate_scenario(21)
        candidates = list(_reductions(scenario))
        tile_at = next(
            i for i, c in enumerate(candidates) if c.terrain.tiles == 1
        )
        size_at = next(
            i
            for i, c in enumerate(candidates)
            if c.terrain.size < scenario.terrain.size
        )
        assert tile_at < size_at
        assert any(c.terrain.tiles == 2 for c in candidates)

    def test_oracle_registered(self):
        assert "shard_consistency" in ORACLES
        oracle = ORACLES["shard_consistency"]
        assert "shard" in oracle.module

    def test_shards_mode_passes_clean(self):
        report = run_scenario(
            generate_scenario(TILED_SEED), modes={"shards"}
        )
        assert report.ok, [str(f) for f in report.findings]
        assert "shards" in report.modes_run

    def test_shards_mode_inactive_without_tiles(self):
        scenario = with_tiles(generate_scenario(TILED_SEED), 1)
        report = run_scenario(scenario, modes={"shards"})
        assert "shards" not in report.modes_run

    def test_injected_unsound_bound_caught_and_kept_tiled(self, tmp_path):
        scenario = generate_scenario(TILED_SEED)

        def fails(candidate):
            return scenario_fails(
                candidate,
                oracle_names=["shard_consistency"],
                mutator="inflate_lb",
                modes={"shards"},
            )

        assert fails(scenario), "unsound sharded bound not caught"
        outcome = shrink_scenario(scenario, fails, max_attempts=12)
        small = outcome.scenario
        # Collapsing the grid turns the shards leg off, which makes
        # the failure vanish — so the shrinker must keep tiles > 1.
        assert small.terrain.tiles > 1
        assert fails(small), "shrunk scenario no longer fails"
        path = write_case(
            small, tmp_path, mutator="inflate_lb",
            oracles=["shard_consistency"],
        )
        report = replay_case(path)
        assert not report.ok
        assert any(
            f.violation.oracle == "shard_consistency"
            for f in report.findings
        )
