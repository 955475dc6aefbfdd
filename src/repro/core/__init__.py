"""The paper's primary contribution: MR3 surface k-NN query
processing by multiresolution distance-range ranking.

Public entry points:

* :class:`SurfaceKNNEngine` — build DMTM + MSDN + object index over a
  terrain and answer sk-NN queries with MR3, the EA benchmark or the
  exact (Chen-Han style) brute force;
* :class:`ObjectSet` — object points on the surface (density in
  objects/km², the paper's unit);
* :class:`ResolutionSchedule` — the paper's step-length settings
  s = 1, 2, 3 plus the EA (no-multiresolution) schedule.
"""

from repro.core.bounds import DistanceInterval, Candidate, classify_candidates
from repro.core.objects import ObjectSet
from repro.core.schedule import ResolutionSchedule
from repro.core.regions import integrate_io_regions
from repro.core.ranking import DistanceRanker, RankerOptions, RankingOutcome
from repro.core.mr3 import MR3QueryProcessor, QueryResult
from repro.core.baseline import exact_knn
from repro.core.obstacles import obstacle_knn, steep_faces
from repro.core.network_baselines import ine_knn, ier_knn
from repro.core.embedding import EmbeddedQuery, embed_point
from repro.core.pairs import surface_closest_pair
from repro.core.engine import SurfaceKNNEngine
from repro.core.budget import BudgetTracker, QueryBudget
from repro.core.batch import (
    BatchError,
    BatchQuery,
    BatchQueryExecutor,
    BatchReport,
    BoundCache,
    shared_bound_cache,
)

__all__ = [
    "DistanceInterval",
    "Candidate",
    "classify_candidates",
    "ObjectSet",
    "ResolutionSchedule",
    "integrate_io_regions",
    "DistanceRanker",
    "RankerOptions",
    "RankingOutcome",
    "MR3QueryProcessor",
    "QueryResult",
    "exact_knn",
    "obstacle_knn",
    "steep_faces",
    "ine_knn",
    "ier_knn",
    "EmbeddedQuery",
    "embed_point",
    "surface_closest_pair",
    "SurfaceKNNEngine",
    "QueryBudget",
    "BudgetTracker",
    "BatchError",
    "BatchQuery",
    "BatchQueryExecutor",
    "BatchReport",
    "BoundCache",
    "shared_bound_cache",
]
