"""Golden regression tests for the query-trace surface.

``QueryResult.explain()`` and the ``repro.query_trace/v2`` JSONL
record are consumed downstream (humans, jq pipelines), so their shape
and deterministic content are pinned against golden files; the
query's phase profile tree (names, nesting, calls) is pinned inline.  Wall-clock
fields are normalized to zero first
(:func:`repro.obs.export.normalize_record`); page counts, candidate
counts, bound values and span structure must reproduce exactly on a
fresh engine.

Regenerate after an intentional format change with::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_trace_golden.py
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.engine import SurfaceKNNEngine
from repro.obs.export import normalize_record, query_record
from repro.obs.context import ObsContext
from repro.testkit.generators import standard_mesh

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("UPDATE_GOLDENS") == "1"


def _golden_result(obs: ObsContext | None = None):
    """The pinned query: fresh engine, fixed terrain/objects/query,
    reporting into ``obs`` (a fresh tracing context by default).

    A fresh engine (not a session fixture) keeps physical page counts
    deterministic: nothing else has touched the buffer pool.
    """
    engine = SurfaceKNNEngine(
        standard_mesh("BH", 17),
        density=10.0,
        seed=3,
        obs=obs if obs is not None else ObsContext(tracing=True),
    )
    qv = engine.mesh.nearest_vertex(engine.mesh.xy_bounds().center)
    return engine.query(qv, 3, step_length=2)


@contextmanager
def reference_components():
    """Run a block with the engine's bound layers on the reference
    implementations of :mod:`repro.testkit.reference`: per-face
    pathnet builds over per-box face selections (Kanai–Suzuki's round
    0 rebuilt per call), ``add_edge`` cut networks over node walks
    searched as keyed graphs, record-id page charging, object-walk
    MSDN bounds and dummy-lb screens, one upper-bound search per
    anchor, and one round-0 Kanai–Suzuki search per polished pair.
    All of those graphs are builder graphs, and the search the DMTM
    and Kanai–Suzuki bind is the testkit twin, so every search takes
    the dict kernel.

    Patches classes and modules for the whole process while the block
    runs, so it is for single-threaded tests only."""
    from repro.geodesic import kanai_suzuki
    from repro.msdn.msdn import MSDN
    from repro.multires import dmtm
    from repro.testkit import reference as ref

    patch = pytest.MonkeyPatch()
    try:
        patch.setattr(dmtm, "build_pathnet", ref.build_pathnet_reference)
        patch.setattr(kanai_suzuki, "build_pathnet", ref.build_pathnet_reference)
        patch.setattr(
            kanai_suzuki, "_round0_pathnet",
            lambda mesh: ref.build_pathnet_reference(mesh, 0),
        )
        for module in (dmtm, kanai_suzuki):
            patch.setattr(
                module, "graph_dijkstra_with_parents",
                ref.graph_dijkstra_with_parents_reference,
            )
        patch.setattr(dmtm.DMTM, "_extract_cut", ref.dmtm_cut_reference)
        patch.setattr(dmtm.DMTM, "_upper_bound_cut", ref.dmtm_upper_bound_cut_reference)
        patch.setattr(
            dmtm.DMTM, "_upper_bounds_from_cut",
            ref.dmtm_upper_bounds_from_cut_reference,
        )
        patch.setattr(dmtm.DMTM, "_faces_in_roi", ref.dmtm_faces_reference)
        patch.setattr(dmtm.DMTM, "_touch_nodes", ref.dmtm_touch_nodes_reference)
        patch.setattr(dmtm.DMTM, "_touch_faces", ref.dmtm_touch_faces_reference)
        patch.setattr(
            dmtm.DMTM, "upper_bounds_multi",
            ref.dmtm_upper_bounds_multi_reference,
        )
        patch.setattr(
            kanai_suzuki, "kanai_suzuki_distances",
            ref.kanai_suzuki_distances_reference,
        )
        patch.setattr(MSDN, "_lower_bound_at", ref.msdn_lower_bound_reference)
        patch.setattr(MSDN, "corridor_interval", ref.msdn_screen_interval_reference)
        patch.setattr(MSDN, "touch_region", ref.msdn_touch_region_reference)
        yield
    finally:
        patch.undo()


@pytest.fixture(scope="module", params=["csr", "reference"])
def kernel(request):
    """Every golden must reproduce on the production path (``csr``:
    array-built, compiled graphs) AND with the bound layers on the
    reference implementations (``reference``, see
    :func:`reference_components`)."""
    if request.param == "reference":
        with reference_components():
            yield request.param
    else:
        yield request.param


@pytest.fixture(scope="module")
def golden_result(kernel):
    return _golden_result()


def _check_or_update(path: Path, text: str) -> None:
    if UPDATE or not path.exists():
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        if UPDATE:
            return
    assert path.read_text(encoding="utf-8") == text, (
        f"{path.name} drifted; regenerate with UPDATE_GOLDENS=1 if the "
        "change is intentional"
    )


class TestExplainGolden:
    def test_explain_matches_golden(self, golden_result):
        # Zero the wall-clock numbers explain() prints; everything
        # else in the rendering is deterministic.
        golden_result.metrics.cpu_seconds = 0.0
        golden_result.metrics.io_seconds = 0.0
        text = golden_result.explain() + "\n"
        _check_or_update(GOLDEN_DIR / "query_explain.txt", text)

    def test_explain_mentions_key_facts(self, golden_result):
        text = golden_result.explain()
        assert "step 2 (filter C1)" in text
        assert "step 4 (rank C2)" in text
        assert "pages by structure" in text


class TestTraceRecordGolden:
    def test_record_matches_golden(self, golden_result):
        record = normalize_record(query_record(golden_result))
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
        _check_or_update(GOLDEN_DIR / "query_trace.json", text)

    def test_record_is_reproducible(self, golden_result):
        """A second fresh engine produces the identical normalized
        record — the determinism the golden file relies on."""
        again = normalize_record(query_record(_golden_result()))
        assert again == normalize_record(query_record(golden_result))

    def test_schema_and_normalization(self, golden_result):
        record = query_record(golden_result)
        assert record["schema"] == "repro.query_trace/v2"
        normalized = normalize_record(record)
        assert normalized["metrics"]["cpu_seconds"] == 0.0
        assert normalized["metrics"]["io_seconds"] == 0.0
        assert normalized["metrics"]["total_seconds"] == 0.0
        assert all(e["cpu_seconds"] == 0.0 for e in normalized["events"])

        def all_durations(span):
            yield span["duration_seconds"]
            for child in span["children"]:
                yield from all_durations(child)

        assert set(all_durations(normalized["spans"])) == {0.0}
        # Normalization must not touch the original record.
        assert record["metrics"]["total_seconds"] >= 0.0
        assert record["spans"]["duration_seconds"] > 0.0


def _golden_tree(polish_searches: int) -> list:
    """The golden query's profile tree as ``[name, calls, children]``
    with ``polish_searches`` searches in its Kanai–Suzuki polish."""
    return [
        "query", 1, [
            ["spatial-filter", 2, []],
            ["interval-ranking", 8, [
                ["bound-composition", 8, [
                    ["page-io", 380, []],
                    ["graph-kernel", 21, []],
                ]],
            ]],
            ["refinement", 1, [["graph-kernel", polish_searches, []]]],
        ],
    ]


#: The golden query's profile tree: the tree every change to the
#: instrumentation must leave alone.  Each search opens one frame,
#: named for the kernel that ran, and the golden query runs no
#: bucketed search, so the csr leg's heap kernels and the reference
#: leg's dict kernels both bill ``graph-kernel`` and neither leg opens
#: a ``frontier-relaxation`` frame.  The legs differ only in the
#: polish: its five targets share one round-0 search in production
#: and take one each in the reference leg's per-pair polish
#: (:func:`~repro.testkit.reference.kanai_suzuki_distances_reference`),
#: before the same nine refinement rounds.
GOLDEN_PROFILES = {"csr": _golden_tree(10), "reference": _golden_tree(14)}


class TestProfileGolden:
    def test_profile_tree_matches_golden(self, kernel):
        def tree(node):
            return [
                node.name, node.calls,
                [tree(child) for child in node.children.values()],
            ]

        ctx = ObsContext(profiling=True)
        result = _golden_result(ctx)
        assert tree(result.profile().root) == GOLDEN_PROFILES[kernel]
        (profile,) = ctx.finished_profiles()
        assert profile.root is result.profile().root
        # Page reads reconcile with the metrics; kernel counts carry
        # the registry's names and values.
        counters = profile.total_counters()
        assert counters["physical_reads"] == result.metrics.pages_accessed
        assert counters["logical_reads"] == result.metrics.logical_reads
        for name in (
            "geodesic.dijkstra.calls",
            "geodesic.dijkstra.settled",
            "geodesic.dijkstra.relaxations",
        ):
            assert counters[name] == ctx.registry.counter(name).value


class TestReferenceLeg:
    def test_searches_run_on_dict_kernels_only(self, monkeypatch):
        """Under :func:`reference_components` the pinned query's 35
        searches are all dict searches with parents: its context
        counts no other kernel call and no bucket."""
        from repro.testkit import reference as ref

        dict_kernel = ref.dijkstra_with_parents_reference
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return dict_kernel(*args, **kwargs)

        ctx = ObsContext(tracing=True)
        with reference_components():
            monkeypatch.setattr(ref, "dijkstra_with_parents_reference", counted)
            _golden_result(ctx)
        assert len(calls) == 35
        assert ctx.registry.counter("geodesic.dijkstra.calls").value == 35
        assert ctx.registry.counter("geodesic.frontier.buckets").value == 0
