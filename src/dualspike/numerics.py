"""Small dense linear algebra and convex subproblem solvers.

Everything here is sized for m <= ~50 variables and a few hundred
constraints.  The SVD and least squares are LAPACK-backed; the projection
onto a polyhedron is a dual active-set method written for the identity
Hessian, which needs no feasible starting point.
"""

import numpy as np
from scipy.optimize import linprog

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


def project_polyhedron(point, a_mat, b_vec, feas_tol=None, max_iter=None):
    """Euclidean projection of ``point`` onto {x : A x <= b}.

    Dual active-set iteration starting from the unconstrained optimum.
    Rows are normalized internally, so ``feas_tol`` is a distance.  Raises
    InfeasibleError when a Farkas certificate of emptiness appears and
    NoConvergenceError when the iteration stalls above tolerance.
    """
    point = np.asarray(point, dtype=float)
    a_mat = np.asarray(a_mat, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    norms = np.linalg.norm(a_mat, axis=1)
    keep = norms > 0.0
    a_mat = a_mat[keep] / norms[keep, None]
    b_vec = b_vec[keep] / norms[keep]
    n_con, n = a_mat.shape
    if feas_tol is None:
        feas_tol = max(1e-12, 1e-14 * float(np.linalg.norm(point)))
    if max_iter is None:
        max_iter = 50 * (n + 2) + 2 * n_con
    x = point.copy()
    active: list[int] = []
    mult = np.zeros(0)
    best_x, best_viol = x.copy(), float((a_mat @ x - b_vec).max())
    for _ in range(max_iter):
        viol = a_mat @ x - b_vec
        j = int(np.argmax(viol))
        vmax = float(viol[j])
        if vmax < best_viol:
            best_viol, best_x = vmax, x.copy()
        if vmax <= feas_tol:
            if active:
                # one exact equality re-solve cleans accumulated drift
                aw = a_mat[active]
                mu = np.linalg.lstsq(aw @ aw.T, aw @ point - b_vec[active], rcond=None)[0]
                x_polished = point - aw.T @ mu
                if float((a_mat @ x_polished - b_vec).max()) <= feas_tol:
                    return x_polished
            return x
        row = a_mat[j]
        entering = 0.0
        for _ in range(2 * (n_con + n) + 4):
            if active:
                aw_t = a_mat[active].T
                coeff = np.linalg.lstsq(aw_t, row, rcond=None)[0]
                z = row - aw_t @ coeff
            else:
                coeff = np.zeros(0)
                z = row.copy()
            zz = float(z @ z)
            vj = float(row @ x - b_vec[j])
            if vj <= feas_tol:
                active.append(j)
                mult = np.append(mult, entering)
                break
            if zz > 1e-20:
                t_full = vj / zz
                t, blocking = t_full, -1
                if coeff.size:
                    pos = np.where(coeff > 1e-12)[0]
                    if pos.size:
                        ratios = mult[pos] / coeff[pos]
                        i_min = int(np.argmin(ratios))
                        if ratios[i_min] < t_full:
                            t, blocking = max(float(ratios[i_min]), 0.0), int(pos[i_min])
                x = x - t * z
                if coeff.size:
                    mult = mult - t * coeff
                entering += t
                if blocking < 0:
                    active.append(j)
                    mult = np.append(mult, entering)
                    break
                active.pop(blocking)
                mult = np.delete(mult, blocking)
            else:
                pos = np.where(coeff > 1e-12)[0] if coeff.size else np.empty(0, int)
                if not pos.size:
                    raise InfeasibleError("constraint set is (numerically) empty")
                ratios = mult[pos] / coeff[pos]
                i_min = int(np.argmin(ratios))
                t, blocking = max(float(ratios[i_min]), 0.0), int(pos[i_min])
                mult = mult - t * coeff
                entering += t
                active.pop(blocking)
                mult = np.delete(mult, blocking)
        else:
            break
    if best_viol <= feas_tol:
        return best_x
    raise NoConvergenceError(
        f"projection stalled at violation {best_viol:.3e} (tol {feas_tol:.3e})",
        last_iterate=best_x)

