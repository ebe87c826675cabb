"""Small dense linear algebra and the level-set projection.

Everything here is sized for m <= ~50 variables and a few hundred
constraints.  The SVD and least squares are LAPACK-backed; the projection
onto a polyhedron is a least-distance program, solved as a non-negative
least-squares problem by scipy's compiled NNLS on a growing working set of
rows, and needs no feasible starting point.  Failures raise: nothing here
retries with another method.  The cut model's LP is solved by its own
warm-started dual simplex in ``solver.CutModel``.
"""

import numpy as np
from scipy.optimize import nnls

from .errors import InfeasibleError, NoConvergenceError, RankDeficientError


def svd(matrix):
    """Thin SVD (U, S, V) with matrix ~ U @ diag(S) @ V.T, S descending."""
    u, s, vt = np.linalg.svd(np.asarray(matrix, dtype=float), full_matrices=False)
    return u, s, vt.T


def least_squares(a, b):
    """Minimizer of ||A x - b||_2 for a tall full-rank A, via one SVD.

    Returns (x, singular values of A, descending).  Raises
    RankDeficientError when sigma_min <= 1e-12 or sigma_min < 1e-12 *
    sigma_max: absolute for matrices of norm up to 1, relative above.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[0] < a.shape[1]:
        raise ValueError("least_squares expects rows >= cols")
    u, s, v = svd(a)
    if s[-1] <= 1e-12 or s[-1] < 1e-12 * s[0]:
        raise RankDeficientError(
            f"matrix is numerically rank deficient (sigma_min={s[-1]:.3e})")
    return v @ ((u.T @ b) / s), s


def project_polyhedron(point, a_mat, b_vec):
    """Euclidean projection of ``point`` onto {x : A x <= b}.

    Least-distance programming by non-negative least squares (Lawson and
    Hanson, *Solving Least Squares Problems*, ch. 23) on a working set of
    rows: first the rows within one largest-violation distance of the point,
    then, round by round, every other row the result violates by more than
    the final tolerance.  A projection onto that relaxation which lands
    inside the full set is the full projection, and the last possible round
    solves on all rows.  Two min-norm corrections onto the rows with a
    positive multiplier run only when the NNLS point fails the final check,
    and only on working rows; a row outside the set that they push over the
    tolerance joins it like any other.  Rows are normalized, so the feasibility tolerance max(1e-12,
    1e-14 |point|) is a distance; a point within it is returned as an
    unchanged copy.  The result is checked against max(1e-12,
    1e-14 max(|point|, |x|)).  Raises InfeasibleError when the set (or a
    working set, hence the set) is empty at that tolerance and
    NoConvergenceError when NNLS runs out of iterations.
    """
    point = np.asarray(point, dtype=float)
    a_mat = np.asarray(a_mat, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    norms = np.linalg.norm(a_mat, axis=1)
    keep = norms > 0.0
    a_mat = a_mat[keep] / norms[keep, None]
    b_vec = b_vec[keep] / norms[keep]
    n = point.size
    feas_tol = max(1e-12, 1e-14 * float(np.linalg.norm(point)))
    excess = a_mat @ point - b_vec
    scale = float(excess.max(initial=-np.inf))
    if scale <= feas_tol:
        return point.copy()
    target = np.zeros(n + 1)
    target[n] = 1.0
    working = excess >= -scale
    while True:
        rows = np.flatnonzero(working)
        # min |z| s.t. -A z >= excess, scaled so the data stays near unit size
        e_mat = np.vstack([-a_mat[rows].T, excess[rows] / scale])
        try:
            mult, _ = nnls(e_mat, target)
        except RuntimeError as exc:
            raise NoConvergenceError(f"projection: {exc}") from None
        resid = e_mat @ mult - target
        if resid[n] >= 0.0:
            raise InfeasibleError("constraint set is (numerically) empty")
        x = point - scale * resid[:n] / resid[n]
        # x can land far from a point near the origin, where one ulp of A x
        # exceeds a tolerance scaled by |point| alone
        tol = max(feas_tol, 1e-14 * float(np.linalg.norm(x)))
        over = a_mat @ x - b_vec > tol
        if np.any(over) and not np.any(over & ~working):
            # only working rows fail: put x on their active faces, which can
            # move it over a row outside the working set
            active = rows[mult > 0.0]
            for _ in range(2):
                x -= np.linalg.lstsq(a_mat[active], a_mat[active] @ x - b_vec[active],
                                     rcond=None)[0]
            tol = max(feas_tol, 1e-14 * float(np.linalg.norm(x)))
            over = a_mat @ x - b_vec > tol
        if not np.any(over & ~working):
            break
        working |= over
    if not float((a_mat @ x - b_vec).max()) <= tol:  # also rejects NaN
        raise InfeasibleError("constraint set is (numerically) empty")
    return x
