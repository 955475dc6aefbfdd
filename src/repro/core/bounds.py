"""Distance intervals and VA-file style candidate classification.

MR3 never computes exact surface distances; each candidate carries an
interval ``[lb, ub]`` with ``lb <= dS <= ub`` that tightens
monotonically as resolution increases (lb by running max, ub by
running min).  Classification follows the ranking rule the paper
borrows from the VA-file [Weber et al., VLDB'98]: with candidates
ordered by upper bound, the search may stop once
``ub(p_k) <= lb(p_{k+1})``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.errors import QueryError


@dataclass
class DistanceInterval:
    """A monotonically tightening surface-distance interval."""

    lb: float = 0.0
    ub: float = float("inf")

    def refine_lb(self, value: float) -> None:
        """Raise the lower bound (running max keeps monotonicity)."""
        if value > self.lb:
            self.lb = value
        self._check()

    def refine_ub(self, value: float) -> None:
        """Lower the upper bound (running min keeps monotonicity)."""
        if value < self.ub:
            self.ub = value
        self._check()

    def _check(self) -> None:
        # Bounds may cross by numerical slack only.
        if self.lb > self.ub * (1.0 + 1e-9) + 1e-9:
            raise QueryError(
                f"distance interval inverted: lb={self.lb} > ub={self.ub}"
            )

    @property
    def width(self) -> float:
        return self.ub - self.lb

    @property
    def accuracy(self) -> float:
        """The paper's ε = lb / ub accuracy measure (0 when ub is
        still infinite)."""
        if self.ub == float("inf") or self.ub == 0.0:
            return 0.0
        return self.lb / self.ub

    def certainly_before(self, other: "DistanceInterval") -> bool:
        """Whether this distance is certainly <= the other's."""
        return self.ub <= other.lb

    def overlaps(self, other: "DistanceInterval") -> bool:
        return not (
            self.certainly_before(other) or other.certainly_before(self)
        )


@dataclass
class Candidate:
    """One object being ranked against the query point."""

    object_id: int
    vertex: int
    position: tuple
    interval: DistanceInterval = field(default_factory=DistanceInterval)
    # Estimation state carried across iterations:
    ub_path_keys: list = field(default_factory=list)
    lb_path_keys: list = field(default_factory=list)
    lb_path_resolution: float | None = None
    # The dummy-lb corridor around ``lb_path_keys`` as an (m, 4)
    # corner array, resolved at the first screen after the path was
    # set; None until then.
    lb_corridor: "np.ndarray | None" = None

    @property
    def lb(self) -> float:
        return self.interval.lb

    @property
    def ub(self) -> float:
        return self.interval.ub


@dataclass
class Classification:
    """Outcome of one classification pass."""

    done: bool
    winners: list  # Candidates certainly within the top k
    active: list  # Candidates still ambiguous
    rejected: list  # Candidates certainly outside the top k
    kth_ub: float  # Upper bound of the k-th candidate (by ub order)
    kth_lb: float = 0.0  # Lower bound of that same candidate

    @property
    def kth_accuracy(self) -> float:
        """ε = lb/ub of the k-th candidate (0 while ub is infinite)."""
        if self.kth_ub == float("inf") or self.kth_ub == 0.0:
            return 0.0
        return self.kth_lb / self.kth_ub


def classify_candidates(candidates: list, k: int) -> Classification:
    """Split candidates into certain winners / ambiguous / rejected.

    With candidates sorted by ub, let T be the k-th smallest ub
    (infinite if fewer than k candidates):

    * a candidate with ``lb >= T`` cannot beat the current k best —
      certainly rejected;
    * a candidate p is a certain winner when at most k candidates
      (including p) have ``lb <= ub(p)`` — no k others can displace
      it;
    * the query is *done* when ``ub(p_k) <= lb(p_{k+1})`` in ub
      order, the paper's termination condition.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    by_ub = sorted(candidates, key=lambda c: (c.ub, c.object_id))
    if len(by_ub) <= k:
        return Classification(
            done=True,
            winners=list(by_ub),
            active=[],
            rejected=[],
            kth_ub=by_ub[-1].ub if by_ub else float("inf"),
            kth_lb=by_ub[-1].lb if by_ub else 0.0,
        )
    kth_ub = by_ub[k - 1].ub
    rest_min_lb = min(c.lb for c in by_ub[k:])
    done = kth_ub <= rest_min_lb
    if done:
        # Exactly the first k by ub win; the sorted-lb/bisect pass
        # below is only needed to split an undecided set.
        return Classification(
            done=True,
            winners=by_ub[:k],
            active=[],
            rejected=by_ub[k:],
            kth_ub=kth_ub,
            kth_lb=by_ub[k - 1].lb,
        )

    lbs = sorted(c.lb for c in candidates)
    winners: list = []
    active: list = []
    rejected: list = []
    for i, cand in enumerate(by_ub):
        if i >= k and cand.lb >= kth_ub:
            rejected.append(cand)
            continue
        # cand certainly wins when at most k candidates (itself
        # included) could have a distance <= its upper bound.
        better_or_equal = bisect.bisect_right(lbs, cand.ub)
        if better_or_equal <= k:
            winners.append(cand)
        else:
            active.append(cand)
    return Classification(
        done=done,
        winners=winners,
        active=active,
        rejected=rejected,
        kth_ub=kth_ub,
        kth_lb=by_ub[k - 1].lb,
    )
