"""Small dense linear algebra and the level-set projection.

Everything here is sized for m <= ~50 variables and a few hundred
constraints, and uses numpy alone.  The SVD and least squares are
LAPACK-backed through ``numpy.linalg``; the projection onto a polyhedron is
a least-distance program, solved as a non-negative least-squares problem by
a Lawson-Hanson active-set loop on an explicit QR factorization, and needs
no feasible starting point.  A ``WarmStart`` carries the rows one
projection ended on into the next, which cuts the loop's steps by about
2.4x in the bundle solve.  Failures raise: nothing here retries with another
method.  The cut model's LP is solved by its own warm-started dual simplex
in ``solver.CutModel``.
"""

import math

import numpy as np

from .errors import InfeasibleError, NoConvergenceError, RankDeficientError


def svd(matrix):
    """Thin SVD (U, S, V) with matrix ~ U @ diag(S) @ V.T, S descending."""
    u, s, vt = np.linalg.svd(np.asarray(matrix, dtype=float), full_matrices=False)
    return u, s, vt.T


def least_squares(a, b):
    """Minimizer x of ||A x - b||_2 for a tall full-rank A, via one SVD.

    The SVD's singular values serve only the rank test: RankDeficientError
    when sigma_min <= 1e-12 or sigma_min < 1e-12 * sigma_max, absolute for
    matrices of norm up to 1, relative above.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[0] < a.shape[1]:
        raise ValueError("least_squares expects rows >= cols")
    u, s, v = svd(a)
    if s[-1] <= 1e-12 or s[-1] < 1e-12 * s[0]:
        raise RankDeficientError(
            f"matrix is numerically rank deficient (sigma_min={s[-1]:.3e})")
    return v @ ((u.T @ b) / s)


# Lawson-Hanson steps (columns added) allowed per constraint row
NNLS_STEPS_PER_ROW = 3


class WarmStart:
    """The rows a projection ended on, as indices into its constraint
    rows, with their NNLS multipliers.  ``project_polyhedron`` starts from
    them and leaves its own there."""

    def __init__(self):
        self.rows = np.empty(0, dtype=int)
        self.multipliers = np.empty(0)


class _PassiveQR:
    """QR factors E_P = Q R of the passive columns P of E, kept as Q and R^-1.

    A column is added by Gram-Schmidt run twice against Q and a bordered
    R^-1; dropping columns refactors.  The least-squares solution of
    E_P u = e_last is R^-1 Q^T e_last, and Q^T e_last is Q's last row.
    Q, R^-1 and the column indices live in arrays with room for every
    column a full-rank set can hold.
    """

    def __init__(self, e_mat, cols):
        n1 = e_mat.shape[0]
        self.e_mat = e_mat
        self._q = np.empty((n1, n1))
        self._rinv = np.zeros((n1, n1))
        self._cols = np.empty(n1, dtype=int)
        self.refactor(cols)

    def refactor(self, cols):
        k = cols.size
        q, r = np.linalg.qr(self.e_mat.take(cols, 1))
        self._q[:, :k] = q
        self._rinv[:k, :k] = np.linalg.inv(r) if k else r
        self._cols[:k] = cols
        self.k = k

    @property
    def q(self):
        return self._q[:, :self.k]

    @property
    def cols(self):
        return self._cols[:self.k]

    def solution(self):
        k = self.k
        return self._rinv[:k, :k] @ self._q[-1, :k]

    def add(self, t):
        """Append column t unless the set is full, t is numerically in the
        span of Q or its coefficient would not come out positive (Lawson
        and Hanson's tests); returns whether it was added."""
        k = self.k
        if k == self._cols.size:
            return False
        col = self.e_mat[:, t]
        q = self._q[:, :k]
        s = col @ q
        v = col - q @ s
        s2 = v @ q
        v -= q @ s2
        rho = math.sqrt(v @ v)
        if not (v[-1] > 0.0 and rho > 1e-14 * math.sqrt(col @ col)):
            return False
        s += s2
        rinv = self._rinv
        rinv[:k, k] = rinv[:k, :k] @ s
        rinv[:k, k] *= -1.0 / rho
        rinv[k, :k] = 0.0
        rinv[k, k] = 1.0 / rho
        self._q[:, k] = v
        self._q[:, k] *= 1.0 / rho
        self._cols[k] = t
        self.k = k + 1
        return True


def _step_to_zero(x, z):
    """Lawson and Hanson's interpolation from x > 0 toward z (some z <= 0):
    the point where the first coefficient with z <= 0 reaches zero, the
    indices of the coefficients still positive there, and that first one."""
    neg = (z <= 0.0).nonzero()[0]
    xn = x.take(neg)
    ratios = xn / (xn - z.take(neg))
    j = ratios.argmin()
    x = x + ratios[j] * (z - x)
    first = neg[j]
    x[first] = 0.0
    keep = (x > 0.0).nonzero()[0]
    return x.take(keep), keep, first


def _warm_columns(e_mat, cols, weights):
    """Start columns whose least-squares coefficients are all positive, and
    a positive point on them.

    Lawson and Hanson's inner loop from ``weights``, solved on the inverse
    Gram matrix of the columns with each dropped column taken out by a
    Schur complement.  It only picks where ``_nnls`` starts: that loop
    re-solves on QR factors and drops what still fails.  LinAlgError when
    the Gram matrix is singular (a zero Schur pivot included), its solution
    not finite or every column dropped.
    """
    sub = e_mat.take(cols, 1)
    inv = np.linalg.inv(sub.T @ sub)
    rhs = sub[-1]
    x = weights
    z = inv @ rhs
    while True:
        low = z[z.argmin()]
        if low > 0.0:
            return cols, x
        if not math.isfinite(low):
            raise np.linalg.LinAlgError("warm start: no finite solution")
        size = x.size
        x, keep, first = _step_to_zero(x, z)
        if not keep.size:
            raise np.linalg.LinAlgError("warm start: every column dropped")
        if keep.size == size - 1:
            dropped = (first,)
        else:
            dropped = np.setdiff1d(np.arange(size), keep)
        for j in dropped:
            row = inv[j]
            if row[j] == 0.0:
                # singular to round-off: np.linalg.inv rejects only exact
                # singularity, and this pivot would fill inv with inf and nan
                raise np.linalg.LinAlgError("warm start: zero Schur pivot")
            inv = inv - row[:, None] * (row / row[j])
        inv = inv.take(keep, 0).take(keep, 1)
        cols, rhs = cols.take(keep), rhs.take(keep)
        z = inv @ rhs


def _nnls(e_mat, cols, weights):
    """Lawson-Hanson NNLS min |E u - e_last| over u >= 0 (Lawson and Hanson,
    *Solving Least Squares Problems*, ch. 23), started from the columns
    ``cols`` and the positive point ``weights`` on them, or from the
    column with the largest last entry alone when those give no start.

    Returns (passive columns, their coefficients, the residual
    e_last - E u).  Raises NoConvergenceError after ``NNLS_STEPS_PER_ROW``
    added columns per column of E.
    """
    try:
        cols, x = _warm_columns(e_mat, cols, weights)
        passive = _PassiveQR(e_mat, cols)
    except np.linalg.LinAlgError:
        cols, x = e_mat[-1].argmax(keepdims=True), np.ones(1)
        passive = _PassiveQR(e_mat, cols)
    steps = NNLS_STEPS_PER_ROW * e_mat.shape[1]
    while True:
        z = passive.solution()
        while z.size and not z[z.argmin()] > 0.0:
            x, keep, _ = _step_to_zero(x, z)
            passive.refactor(passive.cols.take(keep))
            z = passive.solution()
        q = passive.q
        resid = q @ -q[-1]
        resid[-1] += 1.0
        w = resid @ e_mat
        w[passive.cols] = -np.inf
        while True:
            t = w.argmax()
            if not w[t] > 0.0:
                return passive.cols.copy(), z, resid
            if steps == 0:
                raise NoConvergenceError(
                    f"projection: NNLS not solved in {NNLS_STEPS_PER_ROW} steps per row")
            if passive.add(t):
                break
            w[t] = -np.inf
        steps -= 1
        x = np.concatenate((z, (0.0,)))


def _least_distance(point, a_mat, b_vec, warm):
    """One least-distance solve: the NNLS point of ``project_polyhedron``,
    corrected onto the active faces when it fails the final check, and
    whether it passes that check.  ``a_mat`` has unit rows."""
    n = point.size
    feas_tol = max(1e-12, 1e-14 * math.sqrt(point @ point))
    excess = a_mat @ point
    excess -= b_vec
    top = excess.argmax(keepdims=True)
    scale = float(excess[top[0]])
    if scale <= feas_tol:
        return point.copy(), True
    # min |z| s.t. -A z >= excess, scaled so the data stays near unit size
    e_mat = np.empty((n + 1, excess.size))
    np.negative(a_mat.T, out=e_mat[:n])
    np.multiply(excess, 1.0 / scale, out=e_mat[n])
    cols, weights = top, np.ones(1)
    if warm.rows.size:
        # the warm rows and the most violated row
        cols, weights = warm.rows, warm.multipliers
        if not (cols == top[0]).any():
            cols = np.concatenate((cols, top))
            weights = np.concatenate((weights, (weights[weights.argmax()],)))
    cols, mult, resid = _nnls(e_mat, cols, weights)
    warm.rows, warm.multipliers = cols, mult
    # resid[n] = 1 - |Q^T e_last|^2 cancels to 0 on a level set thinner than
    # double precision resolves; the corrections then start from the point
    x = point - (scale / resid[n]) * resid[:n] if resid[n] > 0.0 else point.copy()
    # x can land far from a point near the origin, where one ulp of A x
    # exceeds a tolerance scaled by |point| alone
    tol = max(feas_tol, 1e-14 * math.sqrt(x @ x))
    over = a_mat @ x
    over -= b_vec
    if over[over.argmax()] <= tol:
        return x, True
    # put x on the active faces of the rows with a positive multiplier
    active = a_mat[cols]
    for _ in range(2):
        x -= np.linalg.lstsq(active, active @ x - b_vec[cols], rcond=None)[0]
    tol = max(feas_tol, 1e-14 * math.sqrt(x @ x))
    return x, bool((a_mat @ x - b_vec).max() <= tol)  # False also on NaN


def project_polyhedron(point, a_mat, b_vec, warm):
    """Euclidean projection of ``point`` onto {x : A x <= b}.

    Least-distance programming by non-negative least squares (Lawson and
    Hanson, ch. 23): ``_nnls`` on the columns [-a_i; excess_i / max excess]
    of every row against e_{n+1}.  The NNLS starts from the rows and
    multipliers the previous projection ended on (``warm``, a
    ``WarmStart``), plus the most violated row, or from that row alone
    when ``warm`` is fresh; the rows it ends on are stored back.  Two
    min-norm corrections onto the rows with a positive multiplier run only
    when the NNLS point fails the final check; a corrected point that still
    fails it lies within round-off of the set, and is projected once more.
    Rows are normalized, so the feasibility tolerance max(1e-12,
    1e-14 |point|) is a distance; a point within it is returned as an
    unchanged copy.  The function takes ``a_mat`` and ``b_vec`` over and
    normalizes them in place, each row and its bound divided by the row's
    norm: a caller that reads them afterwards passes copies.  The result
    is checked against max(1e-12, 1e-14 max(|point|, |x|)).  Raises
    InfeasibleError when the set is empty at that tolerance (a zero row
    with a negative bound included) and NoConvergenceError when the NNLS
    runs out of steps.
    """
    point = np.asarray(point, dtype=float)
    a_mat = np.asarray(a_mat, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    norms = np.sqrt(np.einsum("ij,ij->i", a_mat, a_mat))
    if not norms.min(initial=1.0) > 0.0:
        # a zero row holds everywhere or nowhere; it keeps its place, as 0 <= 0
        if (b_vec[norms == 0.0] < 0.0).any():
            raise InfeasibleError("constraint set is empty (a zero row)")
        b_vec = np.where(norms > 0.0, b_vec, 0.0)
        norms = np.where(norms > 0.0, norms, 1.0)
    a_mat /= norms[:, None]
    b_vec /= norms
    x, feasible = _least_distance(point, a_mat, b_vec, warm)
    if not feasible:
        x, feasible = _least_distance(x, a_mat, b_vec, warm)
    if not feasible:
        raise InfeasibleError("constraint set is (numerically) empty")
    return x
