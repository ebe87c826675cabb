"""Dual certificates q(t) = sum_j lambda_j phi(t - s_j): evaluation,
maximizer search and local refinement."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError
from .kernel import Kernel
from .model import SampleGrid

DEFAULT_GRID_POINTS = 4001
DEFAULT_MERGE_TOL = 1e-4
STATIONARY_TOL = 1e-9
# q' and q'' carry round-off of about this much per unit of |weights|_1
# times the supremum of |phi'| (resp. |phi''|)
ROUNDOFF_REL = 1e-13
# a Newton bracket this many ulps wide holds no further progress
BRACKET_ULPS = 4
GRID_NEWTON_ITERS = 100
# refine_location's stopping slope and Newton step budget
REFINE_SLOPE_TOL = 1e-12
REFINE_STEPS = 50
# the scan shows every bump of q as a local maximum only for kernels at
# least this many scan spacings wide
MIN_SIGMA_STEPS = 10


def slope_floor(kernel: Kernel, weights):
    """Round-off floor of q': 1e-13 |weights|_1 sup|phi'|."""
    return ROUNDOFF_REL * float(np.abs(weights).sum()) * kernel.deriv_sup_bounds()[0]


def min_kernel_width():
    """Narrowest sigma the ``DEFAULT_GRID_POINTS`` scan of [0,1] resolves:
    ``MIN_SIGMA_STEPS`` scan spacings (2.5e-3 for 4001 points)."""
    return MIN_SIGMA_STEPS / (DEFAULT_GRID_POINTS - 1)


def _derivatives(kernel: Kernel, samples, weights, t):
    """q(t), q'(t) and q''(t) from one kernel exponential."""
    k0, k1, k2 = kernel.value_and_derivatives(t - samples)
    return float(k0 @ weights), float(k1 @ weights), float(k2 @ weights)


def newton_on_slope(kernel: Kernel, samples, weights, t, lo, hi, floor, max_iter,
                    start=None):
    """Drive q' to zero from t inside the bracket [lo, hi].

    Each step is Newton's where q'' < 0 and lands inside the bracket, and
    bisection otherwise; the bracket end on the side of the new slope's sign
    moves to the new point.  Stops when |q'| <= ``floor``, when a step leaves
    t unchanged, or when the bracket is ``BRACKET_ULPS`` ulps wide.  Returns
    (t, (q, q', q'') at t, converged); ``converged`` is False only when
    ``max_iter`` steps ran out first.  ``start``, when given, is (q, q', q'')
    at t, equal to what ``_derivatives`` returns there; otherwise it is
    evaluated.
    """
    derivs = _derivatives(kernel, samples, weights, t) if start is None else start
    for _ in range(max_iter):
        _, slope, curv = derivs
        if abs(slope) <= floor:
            return t, derivs, True
        mid = 0.5 * (lo + hi)
        t_new = t - slope / curv if curv < 0.0 else mid
        if not lo <= t_new <= hi:
            t_new = mid
        if t_new == t:
            return t, derivs, True
        t = t_new
        derivs = _derivatives(kernel, samples, weights, t)
        if derivs[1] > 0.0:
            lo = t
        else:
            hi = t
        if hi - lo <= BRACKET_ULPS * math.ulp(max(abs(lo), abs(hi))):
            return t, derivs, True
    return t, derivs, False


@dataclass(frozen=True)
class Certificate:
    """A dual vector together with the geometry needed to evaluate q."""

    weights: np.ndarray
    grid: SampleGrid
    kernel: Kernel

    def __init__(self, weights, grid, kernel):
        weights = np.asarray(weights, dtype=float).copy()
        if weights.shape != (grid.n_samples,):
            raise ValueError("one weight per sample is required")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "kernel", kernel)

    def value(self, t, order=0):
        """q(t), q'(t) or q''(t); accepts scalars or arrays of locations."""
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order}")
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        diffs = t_arr[:, None] - self.grid.samples[None, :]
        table = self.kernel.value(diffs) if order == 0 else self.kernel.derivative(diffs, order)
        out = table @ self.weights
        return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


@dataclass(frozen=True)
class MaximizerSet:
    """Refined stationary local maxima of a certificate, sorted by location."""

    locations: np.ndarray
    values: np.ndarray
    curvatures: np.ndarray


class CertificateGrid:
    """Dense evaluation table for certificates sharing one (grid, kernel).

    Precomputes phi(t_i - s_j), phi'(t_i - s_j) and phi''(t_i - s_j) on the
    uniform ``DEFAULT_GRID_POINTS`` scan of [0,1] so that repeated suprema
    (one per bundle iteration) reduce to a matrix-vector product, and each
    Newton run from a scan local maximum starts from three row products
    instead of a kernel evaluation.  A kernel narrower than
    ``MIN_SIGMA_STEPS`` scan spacings (``min_kernel_width``) raises
    ValueError: the scan would not show each of its bumps as a local maximum.
    """

    def __init__(self, grid: SampleGrid, kernel: Kernel):
        if kernel.sigma < min_kernel_width():
            raise ValueError(f"kernel width {kernel.sigma} is below {MIN_SIGMA_STEPS} "
                             f"spacings of the {DEFAULT_GRID_POINTS}-point scan")
        self.grid = grid
        self.kernel = kernel
        self.scan = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
        self.table, self.slope, self.curvature = kernel.value_and_derivatives(
            self.scan[:, None] - grid.samples[None, :])
        # phi' in the first two and the last two scan cells, for the bumps
        # hiding at the ends
        self.end_slope = self.slope[[0, 1, -2, -1]]

    def values(self, weights):
        return self.table @ weights

    def local_max_indices(self, q):
        """Interior scan indices that top both neighbours (one per plateau)."""
        return np.flatnonzero((q[1:-1] >= q[:-2]) & (q[1:-1] > q[2:])) + 1

    def _refined(self, weights, indices, floor):
        """Newton results from the scan local maxima ``indices`` and from any
        bump hiding between an endpoint and its neighbour.

        The scan cannot see a bump that rises and falls entirely within the
        first (or last) grid cell, so the slopes there are checked directly.
        A run from a scan point starts from that point's rows of the tables,
        which equal ``_derivatives`` there bit for bit (unlike the entries
        of the matrix-vector product ``values``).
        """
        scan, samples, kernel = self.scan, self.grid.samples, self.kernel
        starts = [(scan[i], scan[i - 1], scan[i + 1],
                   (float(self.table[i] @ weights), float(self.slope[i] @ weights),
                    float(self.curvature[i] @ weights)))
                  for i in indices]
        ends = scan[[0, 1, -2, -1]]
        slopes = self.end_slope @ weights
        for k in (0, 2):
            if slopes[k] > 0.0 and slopes[k + 1] < 0.0:
                starts.append((0.5 * (ends[k] + ends[k + 1]), ends[k], ends[k + 1], None))
        return [newton_on_slope(kernel, samples, weights, float(t0), float(lo), float(hi),
                                floor, GRID_NEWTON_ITERS, start)
                for t0, lo, hi, start in starts]

    def supremum(self, weights):
        """Global supremum of q over [0,1]; ties resolved to the smallest t."""
        q = self.values(weights)
        i_max = int(np.argmax(q))
        grid_max = float(q[i_max])
        best_t, best_v = float(self.scan[i_max]), grid_max
        # Newton from the scan local max t_i stays in [t_i - h, t_i + h].  q
        # tops q(t_i) there only at a local max t* inside a cell whose ends
        # do not top q(t_i), one of them within h/2 of t*, so by at most
        # h^2/8 sup|q''| over that cell, where |q''| <= |q''(t_i)| +
        # h |weights|_1 sup|phi'''|.  Only peaks whose bound, plus evaluation
        # round-off, reaches the grid max can change the result.
        h = self.scan[1] - self.scan[0]
        mass = float(np.abs(weights).sum())
        peaks = self.local_max_indices(q)
        curv = np.abs(self.curvature[peaks] @ weights)
        third = h * mass * self.kernel.deriv_sup_bounds()[2]
        margin = np.maximum(1e-12, 0.125 * h * h * (curv + third)) + ROUNDOFF_REL * mass
        peaks = peaks[q[peaks] + margin >= grid_max]
        for t, (v, _, _), _ in self._refined(weights, peaks, slope_floor(self.kernel, weights)):
            if v > best_v or (v == best_v and t < best_t):
                best_t, best_v = t, v
        return best_t, best_v

    def maximizers(self, weights):
        """Stationary local maxima of q within 1e-3 of its scan spread of the
        top, Newton-refined; maxima closer than ``DEFAULT_MERGE_TOL`` merge."""
        q = self.values(weights)
        sup, inf = float(q.max()), float(q.min())
        spread = sup - inf
        if spread <= 1e-15 * max(1.0, abs(sup)):
            return MaximizerSet(np.empty(0), np.empty(0), np.empty(0))
        value_tol = 1e-3 * spread
        # q' and q'' cannot be evaluated below their roundoff floors, which
        # grow with |weights|; widen the stationarity test accordingly
        floor = slope_floor(self.kernel, weights)
        slope_tol = max(STATIONARY_TOL, floor)
        curv_tol = max(STATIONARY_TOL, ROUNDOFF_REL * float(np.abs(weights).sum())
                       * self.kernel.deriv_sup_bounds()[1])
        peaks = self.local_max_indices(q)
        peaks = peaks[q[peaks] >= sup - value_tol]
        found = []
        for t, (value, slope, curv), _ in self._refined(weights, peaks, floor):
            if value < sup - value_tol:
                continue
            if abs(slope) <= slope_tol and curv <= curv_tol:
                found.append((t, value, curv))
        found.sort()
        merged = []
        for cand in found:
            if merged and cand[0] - merged[-1][0] < DEFAULT_MERGE_TOL:
                if cand[1] > merged[-1][1]:
                    merged[-1] = cand
            else:
                merged.append(cand)
        if not merged:
            return MaximizerSet(np.empty(0), np.empty(0), np.empty(0))
        locs, vals, curvs = map(np.array, zip(*merged))
        return MaximizerSet(locs, vals, curvs)


def supremum(cert: Certificate):
    """Location and value of sup q over [0,1], from the default scan."""
    return CertificateGrid(cert.grid, cert.kernel).supremum(cert.weights)


def global_maximizers(cert: Certificate) -> MaximizerSet:
    """All near-top stationary local maxima of q, Newton-refined and merged
    (``CertificateGrid.maximizers`` on the default scan)."""
    return CertificateGrid(cert.grid, cert.kernel).maximizers(cert.weights)


def refine_location(cert: Certificate, t0: float) -> float:
    """Polish a stationary point of q from t0 by safeguarded Newton on q'.

    The search is confined to [t0 - sigma, t0 + sigma] (clipped to [0,1]);
    a sign change of q' must exist there (or t0 itself must be a concave
    stationary point), otherwise NoConvergenceError is raised with the last
    iterate attached.  Newton (``newton_on_slope``)
    stops at |q'| <= max(``REFINE_SLOPE_TOL``, round-off floor), at a step
    that does not move, or at a bracket a few ulps wide; running out of
    ``REFINE_STEPS`` steps first also raises NoConvergenceError.
    """
    sigma = cert.kernel.sigma
    lo = max(0.0, t0 - sigma)
    hi = min(1.0, t0 + sigma)

    def slope(t):
        return cert.value(t, 1)

    if abs(slope(t0)) < REFINE_SLOPE_TOL:
        if cert.value(t0, 2) < 0.0:
            return t0
        raise NoConvergenceError(
            f"stationary but not concave at {t0}", last_iterate=t0)
    # shrink toward t0 until the bracket endpoints straddle the stationary point
    bl, bh = lo, hi
    slope_lo, slope_hi = slope(bl), slope(bh)
    for _ in range(60):
        if slope_lo > 0.0 > slope_hi:
            break
        if slope_lo <= 0.0:
            bl = 0.5 * (bl + t0)
            slope_lo = slope(bl)
        if slope_hi >= 0.0:
            bh = 0.5 * (bh + t0)
            slope_hi = slope(bh)
        if bh - bl < 1e-15:
            break
    if not (slope_lo > 0.0 > slope_hi):
        raise NoConvergenceError(
            f"no local maximum bracketed near {t0}", last_iterate=t0)
    floor = max(REFINE_SLOPE_TOL, slope_floor(cert.kernel, cert.weights))
    t, _, converged = newton_on_slope(cert.kernel, cert.grid.samples, cert.weights,
                                      min(max(t0, bl), bh), bl, bh, floor, REFINE_STEPS)
    if not converged:
        raise NoConvergenceError(
            f"refinement near {t0} ran {REFINE_STEPS} steps without converging",
            last_iterate=t)
    return t


def dump_curve(cert: Certificate):
    """(t, q(t)) pairs on the default scan, for external plotting."""
    cg = CertificateGrid(cert.grid, cert.kernel)
    return np.column_stack([cg.scan, cg.values(cert.weights)])
