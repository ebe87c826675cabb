"""Small dense linear algebra and convex subproblem solvers.

Everything here is sized for m <= ~50 variables and a few hundred
constraints.  The SVD and least squares are LAPACK-backed; the projection
onto a polyhedron is one least-distance program, solved as a non-negative
least-squares problem by scipy's compiled NNLS, and needs no feasible
starting point.
"""

import numpy as np
from scipy.optimize import linprog, nnls

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
            f"matrix is numerically rank deficient (sigma_min={s[-1]:.3e})",
            sigma_min=float(s[-1]))
    return v @ ((u.T @ b) / s), s


def lp_min(offsets, slopes, box_radius):
    """Minimize max_i (offsets_i + slopes_i . x) over the box |x|_inf <= r.

    Solved as the epigraph LP.  Returns (optimal value, argmin).
    """
    offsets = np.asarray(offsets, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    n_cuts, n = slopes.shape
    if n_cuts == 0:
        raise ValueError("need at least one affine piece")
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.hstack([slopes, -np.ones((n_cuts, 1))])
    bounds = [(-box_radius, box_radius)] * n + [(None, None)]
    # HiGHS presolve occasionally reports numerical trouble on nearly
    # duplicated rows; retry without it, then with the interior-point method.
    for method, opts in (("highs", {}), ("highs", {"presolve": False}), ("highs-ipm", {})):
        res = linprog(c, A_ub=a_ub, b_ub=-offsets, bounds=bounds, method=method, options=opts)
        if res.status == 0:
            return float(res.fun), res.x[:n]
    raise NoConvergenceError(f"LP solver failed: {res.message}", last_iterate=None)


def project_polyhedron(point, a_mat, b_vec):
    """Euclidean projection of ``point`` onto {x : A x <= b}.

    Least-distance programming by one non-negative least-squares solve
    (Lawson and Hanson, *Solving Least Squares Problems*, ch. 23), then two
    min-norm corrections onto the rows it makes active.  Rows are
    normalized, so the feasibility tolerance max(1e-12, 1e-14 |point|) is a
    distance; a point within it is returned as an unchanged copy.  Raises
    InfeasibleError when the set is empty at that tolerance and
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
    # min |z| s.t. -A z >= excess, scaled so the data stays near unit size
    e_mat = np.vstack([-a_mat.T, excess / scale])
    target = np.zeros(n + 1)
    target[n] = 1.0
    try:
        mult, _ = nnls(e_mat, target)
    except RuntimeError as exc:
        raise NoConvergenceError(f"projection: {exc}", last_iterate=None) from None
    resid = e_mat @ mult - target
    if resid[n] >= 0.0:
        raise InfeasibleError("constraint set is (numerically) empty")
    x = point - scale * resid[:n] / resid[n]
    active = mult > 0.0
    for _ in range(2):
        x -= np.linalg.lstsq(a_mat[active], a_mat[active] @ x - b_vec[active], rcond=None)[0]
    if not float((a_mat @ x - b_vec).max()) <= feas_tol:  # also rejects NaN
        raise InfeasibleError("constraint set is (numerically) empty")
    return x
