"""surfknn — surface k-NN query processing with multiresolution
terrain models.

A from-scratch reproduction of *Surface k-NN Query Processing*
(Deng, Zhou, Shen, Xu, Lin — ICDE 2006).  See README.md for the
architecture overview and DESIGN.md for the subsystem inventory.

The stable public surface is re-exported here; subpackages remain
importable for advanced use.
"""

__version__ = "1.0.0"

from repro.errors import SurfKnnError
from repro.terrain import (
    DemGrid,
    TriangleMesh,
    bearhead_like,
    eagle_peak_like,
    fractal_dem,
    gaussian_hills_dem,
    roughness_report,
)
from repro.geodesic import (
    exact_surface_distance,
    kanai_suzuki_distance,
    pathnet_distance,
)
from repro.core import SurfaceKNNEngine, ObjectSet

__all__ = [
    "__version__",
    "SurfKnnError",
    "DemGrid",
    "TriangleMesh",
    "bearhead_like",
    "eagle_peak_like",
    "fractal_dem",
    "gaussian_hills_dem",
    "roughness_report",
    "exact_surface_distance",
    "kanai_suzuki_distance",
    "pathnet_distance",
    "SurfaceKNNEngine",
    "ObjectSet",
]
