"""Unit tests for the multiresolution distance ranker."""

import math

import numpy as np
import pytest

from repro.core.batch import BoundCache
from repro.core.bounds import Candidate
from repro.core.objects import ObjectSet
from repro.core.ranking import DistanceRanker, RankerOptions
from repro.core.schedule import ResolutionSchedule
from repro.geodesic.exact import ExactGeodesic
from repro.geometry.primitives import BoundingBox
from repro.msdn.msdn import MSDN
from repro.multires.dmtm import DMTM
from repro.testkit.generators import standard_mesh
from repro.testkit.reference import msdn_screen_interval_reference


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
            return threshold, math.inf

        monkeypatch.setattr(msdn, "corridor_interval", screen)
        ranker.rank(mesh.nearest_vertex(mesh.xy_bounds().center), cands, 3)
        assert any(len(seen) > 1 for seen in paths.values())


class TestScreenCache:
    @pytest.fixture(scope="class")
    def bh25(self):
        """A terrain whose corridors are thin beside its pairs, so a
        corridor of fewer chunks gives a different bound."""
        mesh = standard_mesh("BH", 25)
        return (
            mesh, DMTM(mesh), MSDN(mesh),
            ObjectSet.uniform(mesh, density=12.0, seed=3),
        )

    def test_replayed_thresholds_match_the_reference(self, bh25, monkeypatch):
        """Screens of one input set, replayed through one bound cache
        at falling and then rising thresholds, answer as
        ``msdn_screen_reference`` does (the reference corridor bound
        against the threshold) at every one.  The inputs come in
        pairs that differ only in their ROI or only in their corridor
        and have different bounds, and some crossing chains price
        above the bound, so a key without the ROI or the corridor, or
        a chain price kept as the bound itself, answers wrongly."""
        mesh, dmtm, msdn, objects = bh25
        ranker = DistanceRanker(
            mesh, dmtm, msdn, ResolutionSchedule.preset(1), bound_cache=BoundCache()
        )
        q_pos = mesh.vertices[mesh.nearest_vertex(mesh.xy_bounds().center)]
        inputs = []  # (candidate, res_l, roi, reference bound, its chain)
        for obj in range(5):
            position = tuple(objects.position_of(obj))
            # The box of the query's half of the pair: chunks past it
            # are out of the ROI, and a path found inside it is short.
            half = BoundingBox.of_points(
                np.array([q_pos[:2], (q_pos[:2] + np.asarray(position[:2])) / 2])
            )
            paths = [
                msdn.lower_bound(q_pos, position, 1.0, roi=roi, charge_io=False)
                for roi in (None, [half])
            ]
            for res_l in (0.75, 1.0):
                for roi in (None, half):
                    for path in paths:
                        cand = Candidate(
                            object_id=obj,
                            vertex=objects.vertex_of(obj),
                            position=position,
                            lb_path_keys=path.path_keys,
                            lb_path_resolution=path.resolution,
                        )
                        args = (
                            q_pos, position, res_l, 0.0,
                            None if roi is None else [roi],
                            msdn.corridor_corners(path.path_keys, path.resolution),
                        )
                        value, _ = msdn_screen_interval_reference(msdn, *args)
                        # What the crossing chain prices, read where it
                        # decides (well above the bound).
                        _lo, chain = msdn.corridor_interval(
                            *args[:3], 2.0 * value, *args[4:]
                        )
                        inputs.append((cand, res_l, roi, value, chain))

        def bounds_differ(same):
            groups: dict = {}
            for cand, res_l, roi, value, _chain in inputs:
                groups.setdefault(same(cand, res_l, roi), set()).add(value)
            return any(len(values) > 1 for values in groups.values())

        assert bounds_differ(lambda c, r, roi: (c.object_id, r, tuple(c.lb_path_keys)))
        assert bounds_differ(lambda c, r, roi: (c.object_id, r, roi))
        assert any(value < chain < math.inf for *_rest, value, chain in inputs)
        thresholds = set()
        for cand, _res_l, _roi, value, chain in inputs:
            thresholds.update((
                value,
                float(np.nextafter(value, -np.inf)),
                float(np.nextafter(value, np.inf)),
                float(np.linalg.norm(q_pos - np.asarray(cand.position))),
                2.0 * value,
            ))
            if chain < math.inf:
                thresholds.update((chain, 0.5 * (value + chain)))

        computed = []
        screen = msdn.corridor_interval

        def counted(*args, **kwargs):
            computed.append(args)
            return screen(*args, **kwargs)

        monkeypatch.setattr(msdn, "corridor_interval", counted)
        order = sorted(thresholds, reverse=True)
        decisions = 0
        for t in order + order[::-1]:
            for cand, res_l, roi, value, _chain in inputs:
                got = ranker._corridor_reaches(q_pos, cand, res_l, t, roi)
                assert got == (value >= t), (cand.object_id, res_l, roi, t, value)
                decisions += 1
        stats = ranker.bound_cache.stats()["by_kind"]["screen"]
        assert stats["hits"] + stats["misses"] == decisions
        assert len(computed) < decisions
