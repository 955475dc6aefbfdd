"""Unit tests for the multiresolution distance ranker."""

import numpy as np
import pytest

from repro.core.objects import ObjectSet
from repro.core.ranking import DistanceRanker, RankerOptions
from repro.core.schedule import ResolutionSchedule
from repro.geodesic.exact import ExactGeodesic
from repro.msdn.msdn import MSDN
from repro.multires.dmtm import DMTM


@pytest.fixture(scope="module")
def stack(request):
    mesh = request.getfixturevalue("bh_mesh")
    dmtm = DMTM(mesh)
    msdn = MSDN(mesh)
    objects = ObjectSet.uniform(mesh, density=12.0, seed=3)
    return mesh, dmtm, msdn, objects


def make_ranker(stack, step=1, **opts):
    mesh, dmtm, msdn, _objects = stack
    return DistanceRanker(
        mesh, dmtm, msdn, ResolutionSchedule.preset(step), RankerOptions(**opts)
    )


def exact_order(mesh, objects, query_vertex):
    geo = ExactGeodesic(mesh, query_vertex)
    dists = [(geo.distance_to(objects.vertex_of(i)), i) for i in range(len(objects))]
    dists.sort()
    return dists


class TestRanking:
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_topk_matches_exact(self, stack, step):
        mesh, dmtm, msdn, objects = stack
        ranker = make_ranker(stack, step)
        qv = mesh.nearest_vertex(mesh.xy_bounds().center)
        candidates = ranker.make_candidates(range(len(objects)), objects)
        out = ranker.rank(qv, candidates, 4)
        truth = exact_order(mesh, objects, qv)
        want = {obj for _d, obj in truth[:4]}
        got = {c.object_id for c in out.winners}
        # Allow swaps only between objects closer than the pathnet
        # approximation error (3 %).
        kth = truth[3][0]
        for obj in got - want:
            ds = dict((o, d) for d, o in truth)[obj]
            assert ds <= kth * 1.05

    def test_intervals_bracket_exact(self, stack):
        mesh, dmtm, msdn, objects = stack
        ranker = make_ranker(stack)
        qv = 3
        geo = ExactGeodesic(mesh, qv)
        candidates = ranker.make_candidates(range(len(objects)), objects)
        ranker.rank(qv, candidates, 3)
        for cand in candidates:
            ds = geo.distance_to(cand.vertex)
            assert cand.lb <= ds + 1e-6
            if np.isfinite(cand.ub):
                assert cand.ub >= ds - 1e-6

    def test_empty_candidates(self, stack):
        ranker = make_ranker(stack)
        out = ranker.rank(0, [], 3)
        assert out.winners == []
        assert out.converged

    def test_tighten_kth(self, stack):
        mesh, _dmtm, _msdn, objects = stack
        ranker = make_ranker(stack)
        qv = mesh.nearest_vertex(mesh.xy_bounds().center)
        loose = ranker.rank(
            qv, ranker.make_candidates(range(3), objects), 3, tighten_kth=0.0
        )
        tight = ranker.rank(
            qv, ranker.make_candidates(range(3), objects), 3, tighten_kth=0.9
        )
        assert tight.kth_ub <= loose.kth_ub + 1e-9
        assert tight.iterations >= loose.iterations

    def test_options_do_not_change_results(self, stack):
        """Integration / refined region / dummy lb are performance
        switches; the winner set must be identical."""
        mesh, _dmtm, _msdn, objects = stack
        qv = mesh.nearest_vertex(mesh.xy_bounds().center)
        results = []
        for opts in (
            {},
            {"integrate_io": False},
            {"use_refined_region": False},
            {"use_dummy_lb": False},
        ):
            ranker = make_ranker(stack, 2, **opts)
            out = ranker.rank(
                qv, ranker.make_candidates(range(len(objects)), objects), 5
            )
            results.append({c.object_id for c in out.winners})
        assert all(r == results[0] for r in results[1:])


class TestScreenCorridor:
    def test_screen_after_a_full_pass_reads_the_new_path(self, stack, monkeypatch):
        """Every screen reads the corridor of the candidate's current
        lower-bound path.  Here every screen lets its candidate
        through, so each level's full pass replaces the path the next
        level's screen reads; a corridor kept from an earlier path
        fails the comparison."""
        mesh, _dmtm, msdn, objects = stack
        ranker = make_ranker(stack, step=1)
        cands = ranker.make_candidates(range(len(objects)), objects)
        by_position = {tuple(c.position): c for c in cands}
        paths: dict[int, set] = {}

        def screen(pa, pb, resolution, threshold, roi=None, corridor=None):
            cand = by_position[tuple(pb)]
            want = msdn.corridor_corners(cand.lb_path_keys, cand.lb_path_resolution)
            assert corridor.tobytes() == want.tobytes()
            paths.setdefault(id(cand), set()).add(tuple(cand.lb_path_keys))
            return True

        monkeypatch.setattr(msdn, "corridor_reaches", screen)
        ranker.rank(mesh.nearest_vertex(mesh.xy_bounds().center), cands, 3)
        assert any(len(seen) > 1 for seen in paths.values())
