"""Quadric error metrics (Garland & Heckbert 1997).

Each face contributes the squared-distance-to-plane quadric of its
supporting plane; a vertex's quadric is the area-weighted sum over its
incident faces.  The cost of contracting a vertex pair is the summed
quadric evaluated at the merged position — the error measure the
paper uses to order DM collapses ("the resultant terrain after the
merger causes minimum approximation error according to ... the
quadric error matrices").

Quadrics are kept as symmetric 4x4 matrices Q so that the error of
homogeneous point v is vᵀQv.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimplificationError


def face_quadric(a, b, c) -> np.ndarray:
    """Area-weighted plane quadric of triangle ``abc``.

    Degenerate (zero-area) faces contribute the zero quadric.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n = np.cross(b - a, c - a)
    norm = float(np.linalg.norm(n))
    if norm == 0.0:
        return np.zeros((4, 4))
    area = norm / 2.0
    n = n / norm
    d = -float(np.dot(n, a))
    p = np.array([n[0], n[1], n[2], d])
    return area * np.outer(p, p)


def _rowwise_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[i] · y[i]`` per row, each one ``np.dot`` of two vectors
    (a stacked ``matmul`` of row by column runs the same BLAS dot per
    row; ``(x * y).sum(axis=1)`` rounds differently)."""
    return np.matmul(x[:, np.newaxis, :], y[:, :, np.newaxis])[:, 0, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every row, as ``sqrt(x·x)``."""
    return np.sqrt(_rowwise_dot(x, x))


def _face_quadrics(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """(F, 4, 4) array of :func:`face_quadric` per face, column-wise
    with the same float operations, so each equals the per-face value
    bit for bit."""
    a, b, c = (vertices[faces[:, slot]] for slot in range(3))
    n = np.cross(b - a, c - a)
    norm = _norms(n)
    out = np.zeros((faces.shape[0], 4, 4))
    live = norm != 0.0
    n, a, norm = n[live], a[live], norm[live]
    n = n / norm[:, np.newaxis]
    p = np.empty((n.shape[0], 4))
    p[:, :3] = n
    p[:, 3] = -_rowwise_dot(n, a)
    area = norm / 2.0
    out[live] = area[:, np.newaxis, np.newaxis] * (
        p[:, :, np.newaxis] * p[:, np.newaxis, :]
    )
    return out


def vertex_quadrics(mesh) -> np.ndarray:
    """(n, 4, 4) array of per-vertex quadrics for a mesh: each vertex
    sums its faces' quadrics in face order (``np.add.at`` over the
    face-major vertex list applies the additions in that order)."""
    q = np.zeros((mesh.num_vertices, 4, 4))
    faces = np.asarray(mesh.faces, dtype=np.int64)
    fq = _face_quadrics(np.asarray(mesh.vertices, dtype=float), faces)
    np.add.at(q, faces.ravel(), np.repeat(fq, 3, axis=0))
    return q


def quadric_error(q: np.ndarray, position) -> float:
    """Error vᵀQv of a 3D position under quadric ``q`` (clamped at 0
    against round-off)."""
    if q.shape != (4, 4):
        raise SimplificationError(f"quadric must be 4x4, got {q.shape}")
    v = np.append(np.asarray(position, dtype=float), 1.0)
    return max(float(v @ q @ v), 0.0)


def best_merge_position(q: np.ndarray, pos_a, pos_b) -> tuple[np.ndarray, float]:
    """Pick the merged-vertex position for a contraction.

    Tries the quadric-optimal position (solving ∇(vᵀQv) = 0) and
    falls back to the best of {a, b, midpoint} when the system is
    ill-conditioned — Garland & Heckbert's own fallback.
    Returns (position, error).
    """
    pos_a = np.asarray(pos_a, dtype=float)
    pos_b = np.asarray(pos_b, dtype=float)
    candidates = [pos_a, pos_b, (pos_a + pos_b) / 2.0]
    solver = np.array(q)
    solver[3, :] = (0.0, 0.0, 0.0, 1.0)
    try:
        if abs(np.linalg.det(solver)) > 1e-12:
            opt = np.linalg.solve(solver, np.array([0.0, 0.0, 0.0, 1.0]))[:3]
            # Keep the optimum only if it stays near the contracted pair
            # (far-flying optima on flat quadrics hurt terrain shape).
            span = float(np.linalg.norm(pos_a - pos_b)) + 1e-12
            if float(np.linalg.norm(opt - (pos_a + pos_b) / 2.0)) <= 2.0 * span:
                candidates.append(opt)
    except np.linalg.LinAlgError:
        pass
    best_pos = candidates[0]
    best_err = quadric_error(q, best_pos)
    for cand in candidates[1:]:
        err = quadric_error(q, cand)
        if err < best_err:
            best_err = err
            best_pos = cand
    return best_pos, best_err


def merge_costs(
    q: np.ndarray, pos_a: np.ndarray, pos_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`best_merge_position` for a batch of contractions, plus
    the representative choice: ``q`` is ``(m, 4, 4)``, ``pos_a`` /
    ``pos_b`` are ``(m, 3)`` (or one ``(3,)`` row for all); returns
    ``(positions (m, 3), errors (m,), keep_a (m,))`` where ``keep_a``
    is ``|p - a| <= |p - b|`` for the chosen position ``p``.

    All four candidates of every pair — a, b, midpoint, optimum — are
    scored together, bit for bit as the per-pair code scores them:
    the determinants and solves are the stacked LAPACK calls, every
    norm is ``sqrt(x·x)`` (:func:`_norms`) and every error
    ``vᵀQv`` a stacked ``matmul`` product (``np.einsum`` or
    ``(x * x).sum(axis=1)`` would round differently), and candidates
    are compared in the per-pair order, keeping the first on ties.
    """
    m = q.shape[0]
    # Homogeneous candidate rows (a, b, midpoint, optimum, 1) per pair;
    # the midpoint stands in where there is no usable optimum.
    v = np.empty((m, 4, 1, 4))
    v[:, :, 0, 3] = 1.0
    cand = v[:, :, 0, :3]
    cand[:, 0] = pos_a
    cand[:, 1] = pos_b
    cand[:, 2] = (pos_a + pos_b) / 2.0
    cand[:, 3] = cand[:, 2]
    solvers = q.copy()
    solvers[:, 3] = (0.0, 0.0, 0.0, 1.0)
    tried = np.flatnonzero(np.abs(np.linalg.det(solvers)) > 1e-12)
    solved = np.zeros(m, dtype=bool)
    if tried.size:
        rhs = np.zeros((tried.size, 4, 1))
        rhs[:, 3, 0] = 1.0
        try:
            cand[tried, 3] = np.linalg.solve(solvers[tried], rhs)[:, :3, 0]
            solved[tried] = True
        except np.linalg.LinAlgError:
            # A singular matrix in the stack: solve each on its own and
            # skip the singular ones, as the per-pair code does.
            for row in tried.tolist():
                try:
                    cand[row, 3] = np.linalg.solve(solvers[row], rhs[0, :, 0])[:3]
                except np.linalg.LinAlgError:
                    continue
                solved[row] = True
    err = np.matmul(np.matmul(v, q[:, np.newaxis]), v.swapaxes(2, 3))[:, :, 0, 0]
    # max(x, 0.0) per candidate keeps -0.0 and NaN.
    err = np.where(0.0 > err, 0.0, err)
    # The per-pair order compares b, midpoint and optimum in turn with
    # ``<``, keeping the first on ties: argmin, once a NaN challenger
    # (never smaller) reads as inf.  The optimum competes only near
    # the pair (far-flying optima on flat quadrics hurt terrain shape).
    score = err.copy()
    challengers = score[:, 1:]
    challengers[np.isnan(challengers)] = np.inf
    span = _norms(cand[:, 0] - cand[:, 1]) + 1e-12
    near = _norms(cand[:, 3] - cand[:, 2]) <= 2.0 * span
    score[~(solved & near), 3] = np.inf
    pick = np.argmin(score, axis=1)
    rows = np.arange(m)
    best = cand[rows, pick]
    keep_a = _norms(best - cand[:, 0]) <= _norms(best - cand[:, 1])
    return best, err[rows, pick], keep_a
