"""Production never reaches the oracles.

The dict kernels, the keyed-graph builder, the list-built CSRs and
every other reference twin live in :mod:`repro.testkit`; production
code builds compiled graphs only.  A fresh interpreter drives every
query entry point of the library — kNN at a vertex and at an embedded
point, range and obstacle queries, a roughness report, a sharded
query — and must finish without importing any ``repro.testkit``
module, or ``numpy.ma`` (a megabyte of module that plain ``np.unique``
pulls in).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SCRIPT = textwrap.dedent(
    """
    import sys

    from repro import TriangleMesh, bearhead_like, fractal_dem, roughness_report
    from repro.core import SurfaceKNNEngine
    from repro.core.obstacles import steep_faces
    from repro.shard.engine import ShardedEngine, uniform_grid_objects

    mesh = TriangleMesh.from_dem(bearhead_like(13))
    engine = SurfaceKNNEngine(mesh, density=10.0, seed=3, landmarks=4)
    engine.query(40, 3)
    cx, cy = mesh.xy_bounds().center
    engine.query_point(float(cx) + 3.0, float(cy) + 2.0, 3)
    engine.range_query(40, 300.0)
    engine.obstacle_query(40, 2, forbidden_faces=steep_faces(mesh, 30.0))
    roughness_report(mesh)

    dem = fractal_dem(25, 90.0, 500.0, 0.7)
    sharded = ShardedEngine(
        dem,
        objects=uniform_grid_objects(dem, 64, seed=0),
        grid=(3, 3),
        max_workers=2,
    )
    assert len(sharded.query(28, 3).object_ids) == 3

    print(sorted(
        name for name in sys.modules
        if name.split(".")[:2] in (["numpy", "ma"], ["repro", "testkit"])
    ))
    """
)


def test_query_paths_import_no_oracle_and_no_numpy_ma():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
