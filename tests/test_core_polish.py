"""Tests for the final Kanai-Suzuki polish pass of the ranker."""

import numpy as np
import pytest

from repro.core.batch import BoundCache
from repro.core.ranking import DistanceRanker, RankerOptions
from repro.core.schedule import ResolutionSchedule
from repro.geodesic import kanai_suzuki
from repro.geodesic.deadline import DeadlineExceeded
from repro.geodesic.exact import ExactGeodesic


def run_rank(engine, qv, k, bound_cache=None, **opts):
    ranker = DistanceRanker(
        engine.mesh,
        engine.dmtm,
        engine.msdn,
        ResolutionSchedule.preset(1),
        RankerOptions(**opts),
        bound_cache=bound_cache,
    )
    cands = ranker.make_candidates(range(len(engine.objects)), engine.objects)
    out = ranker.rank(qv, cands, k)
    return out, cands


class TestFinalPolish:
    def test_polish_tightens_boundary_ubs(self, small_engine):
        qv = small_engine.snap(600.0, 1200.0)
        with_polish, cands_p = run_rank(small_engine, qv, 4, final_polish=True)
        without, cands_n = run_rank(small_engine, qv, 4, final_polish=False)
        width_p = sum(c.ub - c.lb for c in with_polish.winners)
        width_n = sum(c.ub - c.lb for c in without.winners)
        assert width_p <= width_n + 1e-9

    def test_polished_ubs_remain_valid(self, small_engine):
        qv = small_engine.snap(600.0, 1200.0)
        out, cands = run_rank(small_engine, qv, 4, final_polish=True)
        geo = ExactGeodesic(small_engine.mesh, qv)
        for cand in cands:
            if np.isfinite(cand.ub):
                ds = geo.distance_to(cand.vertex)
                assert cand.ub >= ds - 1e-6
                assert cand.lb <= ds + 1e-6

    def test_polish_within_tolerance_of_exact(self, small_engine):
        """After polishing, every winner's ub is within ~tolerance of
        its true surface distance."""
        qv = small_engine.snap(600.0, 1200.0)
        out, _cands = run_rank(
            small_engine, qv, 4, final_polish=True, polish_tolerance=0.02
        )
        geo = ExactGeodesic(small_engine.mesh, qv)
        for cand in out.winners:
            ds = geo.distance_to(cand.vertex)
            assert cand.ub <= ds * 1.10  # selective refinement slack


def _interval_bits(cands) -> list:
    return [
        (c.object_id, np.float64(c.lb).tobytes(), np.float64(c.ub).tobytes())
        for c in cands
    ]


class TestPolishCache:
    def test_same_with_and_without_bound_cache(self, small_engine, monkeypatch):
        """The polish computes only the pairs the cache misses: cold,
        then warm, the cached polish leaves the intervals of the
        uncached one, and the warm run searches nothing."""
        calls = []
        shared = kanai_suzuki.kanai_suzuki_distances

        def counted(mesh, source, targets, **kwargs):
            calls.append(list(targets))
            return shared(mesh, source, targets, **kwargs)

        monkeypatch.setattr(kanai_suzuki, "kanai_suzuki_distances", counted)
        qv = small_engine.snap(600.0, 1200.0)
        _out, plain = run_rank(small_engine, qv, 4)
        polished = len(calls)
        assert polished > 0
        cache = BoundCache()
        for _ in range(2):
            _out, cached = run_rank(small_engine, qv, 4, bound_cache=cache)
            assert _interval_bits(cached) == _interval_bits(plain)
        assert len(calls) == 2 * polished
        assert cache.hits > 0


class TestPolishDeadline:
    def test_deadline_in_a_later_anchor_keeps_the_finished_ones(
        self, small_engine, monkeypatch
    ):
        """Each anchor's distances refine the targets as soon as its
        call returns: a deadline in the second anchor's call leaves
        every target refined by the first, and the cache holds the
        first anchor's pairs."""
        shared = kanai_suzuki.kanai_suzuki_distances
        sources = []

        def second_times_out(mesh, source, targets, **kwargs):
            sources.append(source)
            if len(sources) == 2:
                raise DeadlineExceeded("deadline")
            return shared(mesh, source, targets, **kwargs)

        monkeypatch.setattr(kanai_suzuki, "kanai_suzuki_distances", second_times_out)
        cache = BoundCache()
        ranker = DistanceRanker(
            small_engine.mesh,
            small_engine.dmtm,
            small_engine.msdn,
            ResolutionSchedule.preset(1),
            RankerOptions(),
            bound_cache=cache,
        )
        objects = small_engine.objects
        targets = ranker.make_candidates(range(3), objects)
        first = small_engine.snap(600.0, 1200.0)
        anchors = [(first, 0.5), (small_engine.snap(900.0, 300.0), 0.0)]
        with pytest.raises(DeadlineExceeded):
            ranker._polish(anchors, targets)
        tolerance = ranker.options.polish_tolerance
        expected = shared(
            small_engine.mesh, first, [c.vertex for c in targets], tolerance=tolerance
        )
        assert [c.ub for c in targets] == [0.5 + d for d in expected]
        found = [
            cache.lookup(("ks", ranker._scope, int(first), int(c.vertex), tolerance))
            for c in targets
        ]
        assert found == [(True, d) for d in expected]
