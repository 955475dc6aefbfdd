"""Property-based tests for the core invariants of the reproduction:
distance bounds, classification soundness, index equivalence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import Candidate, classify_candidates
from repro.spatial.rtree import RTree


@st.composite
def interval_candidates(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    cands = []
    for i in range(n):
        lb = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
        width = draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
        c = Candidate(object_id=i, vertex=i, position=(0.0, 0.0, 0.0))
        c.interval.refine_lb(lb)
        c.interval.refine_ub(lb + width)
        cands.append(c)
    return cands


class TestClassificationProperties:
    @given(interval_candidates(), st.integers(min_value=1, max_value=10))
    @settings(max_examples=120)
    def test_partition_is_complete(self, cands, k):
        out = classify_candidates(cands, k)
        assert len(out.winners) + len(out.active) + len(out.rejected) == len(cands)

    @given(interval_candidates(), st.integers(min_value=1, max_value=10))
    @settings(max_examples=120)
    def test_rejection_and_winner_rules_sound(self, cands, k):
        """Rejection: at least k candidates cannot be farther than a
        rejected one (their ub <= its lb).  Winner: at most k
        candidates could possibly be nearer (their lb <= its ub)."""
        out = classify_candidates(cands, k)
        if len(cands) <= k:
            assert out.done
            return
        for c in out.rejected:
            cannot_be_farther = sum(
                1 for o in cands if o is not c and o.ub <= c.lb + 1e-12
            )
            assert cannot_be_farther >= k
        if not out.done:
            for c in out.winners:
                could_be_nearer = sum(1 for o in cands if o.lb <= c.ub)
                assert could_be_nearer <= k

    @given(interval_candidates(), st.integers(min_value=1, max_value=10))
    @settings(max_examples=120)
    def test_done_criterion_valid(self, cands, k):
        """When done, the k-th winner ub never exceeds any
        non-winner's lb — the paper's ub(p_k) <= lb(p_{k+1}) rule."""
        out = classify_candidates(cands, k)
        if out.done and out.rejected:
            kth_ub = max(c.ub for c in out.winners)
            assert all(c.lb >= kth_ub - 1e-9 for c in out.rejected)


points_2d = st.lists(
    st.tuples(
        st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
        st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
    ),
    min_size=1,
    max_size=60,
)


class TestIndexEquivalence:
    @given(points_2d, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_rtree_knn_equals_brute(self, pts, k):
        tree = RTree(max_entries=4)
        for i, p in enumerate(pts):
            tree.insert_point(p, i)
        q = (0.0, 0.0)
        got = [i for _d, i in tree.knn(q, k)]
        brute = sorted(
            range(len(pts)),
            key=lambda i: (np.hypot(pts[i][0], pts[i][1]), i),
        )[:k]
        got_d = [float(np.hypot(*pts[i])) for i in got]
        want_d = [float(np.hypot(*pts[i])) for i in brute]
        assert got_d == pytest.approx(want_d)
