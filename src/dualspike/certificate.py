"""Dual certificates q(t) = sum_j lambda_j phi(t - s_j): evaluation,
maximizer search and local refinement.

Every refinement goes through one safeguarded Newton routine,
``newton_on_slope``, which advances a batch of runs together: the
supremum of a lockstep batch of certificates (one per bundle problem)
refines every scan local maximum of each of them in one call, while each
certificate keeps its own scan product.  A run's result is the same bit
for bit whatever runs share its call.  ``refine_peaks`` refines every
start on every certificate of a batch (an iteration window, a sweep chunk)
in one bracket search and one Newton call.
"""

import functools
import math

import numpy as np

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
# refine_peaks' stopping slope and Newton step budget
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
    """q, q' and q'' of run r at t[r], for the rows of ``weights``, from one
    kernel exponential per entry.  Each is a row dot product (stacked
    ``np.matmul``), so a run gets the bits of ``k @ weights[r]`` whatever
    runs share the call."""
    tables = np.array(kernel.value_and_derivatives(t[:, None] - samples))
    return np.matmul(tables[:, :, None, :], weights[:, :, None])[..., 0, 0]


def newton_on_slope(kernel: Kernel, samples, weights, t, lo, hi, floor, max_iter):
    """Drive q' to zero from t inside the bracket [lo, hi], for a batch of
    runs: run r works on ``weights[r]`` from ``t[r]`` in [``lo[r]``,
    ``hi[r]``] down to the slope ``floor[r]``.

    Each step is Newton's where q'' < 0 and lands inside the bracket, and
    bisection otherwise; the bracket end on the side of the new slope's sign
    moves to the new point.  A run stops when |q'| <= its floor, when a step
    leaves t unchanged, or when its bracket is ``BRACKET_ULPS`` ulps wide.
    One ``_derivatives`` call evaluates every start, and the runs still
    going take each step together: one ``_derivatives`` call evaluates all
    their new points, and the tests and bracket updates run per run in
    floats, so a run's arithmetic is the same whatever runs share it.
    Returns (t, (q, q', q'') at t, converged), lists with one entry per run;
    ``converged`` is False only where ``max_iter`` steps ran out first.
    """
    t = np.asarray(t, dtype=float)
    q, slope, curv = _derivatives(kernel, samples, weights, t).tolist()
    t, lo, hi, floor = np.array([t, lo, hi, floor], dtype=float).tolist()
    converged = [False] * len(t)
    going = range(len(t))
    for _ in range(max_iter):
        moved = []
        for r in going:
            if abs(slope[r]) <= floor[r]:
                converged[r] = True
                continue
            mid = 0.5 * (lo[r] + hi[r])
            t_new = t[r] - slope[r] / curv[r] if curv[r] < 0.0 else mid
            if not lo[r] <= t_new <= hi[r]:
                t_new = mid
            if t_new == t[r]:
                converged[r] = True
                continue
            t[r] = t_new
            moved.append(r)
        if not moved:
            break
        moved_weights = weights if len(moved) == len(t) else weights[moved]
        derivs = _derivatives(kernel, samples, moved_weights, np.array([t[r] for r in moved]))
        going = []
        for r, at_t in zip(moved, zip(*derivs.tolist())):
            q[r], slope[r], curv[r] = at_t
            if slope[r] > 0.0:
                lo[r] = t[r]
            else:
                hi[r] = t[r]
            if hi[r] - lo[r] <= BRACKET_ULPS * math.ulp(max(abs(lo[r]), abs(hi[r]))):
                converged[r] = True
            else:
                going.append(r)
    return t, (q, slope, curv), converged


class Certificate:
    """A dual vector together with the geometry needed to evaluate q."""

    def __init__(self, weights, grid, kernel):
        weights = np.asarray(weights, dtype=float).copy()
        if weights.shape != (grid.n_samples,):
            raise ValueError("one weight per sample is required")
        weights.flags.writeable = False
        self.weights, self.grid, self.kernel = weights, grid, kernel


class MaximizerSet:
    """Refined stationary local maxima of a certificate, sorted by location."""

    def __init__(self, locations, values):
        self.locations, self.values = locations, values


@functools.lru_cache(maxsize=1)
def _scan_tables(sigma, samples: bytes):
    """The ``DEFAULT_GRID_POINTS``-point scan of [0,1], and phi at (scan -
    sample) and phi' at its first two and last two points for the kernel of
    width ``sigma``, all read-only.  Kept for the last (sigma, samples)
    asked for: every solve, curve and recovery of a process shares one."""
    kernel = Kernel(sigma)
    scan = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
    samples = np.frombuffer(samples)
    tables = (scan, kernel.value(scan[:, None] - samples),
              kernel.derivative(scan[[0, 1, -2, -1], None] - samples, 1))
    for array in tables:
        array.flags.writeable = False
    return tables


class CertificateGrid:
    """Dense evaluation table for certificates sharing one (grid, kernel).

    Holds phi(t_i - s_j) on the uniform ``DEFAULT_GRID_POINTS`` scan of
    [0,1], so that repeated suprema (one per bundle problem and iteration)
    reduce to a matrix-vector product each, plus Newton runs from the scan
    local maxima.  The tables are read-only and kept for the last (sigma,
    samples) a grid was made for, so a process that works on one input
    builds them once.  A kernel narrower than ``MIN_SIGMA_STEPS`` scan
    spacings (``min_kernel_width``) raises ValueError: the scan would not
    show each of its bumps as a local maximum.
    """

    def __init__(self, grid: SampleGrid, kernel: Kernel):
        if kernel.sigma < min_kernel_width():
            raise ValueError(f"kernel width {kernel.sigma} is below {MIN_SIGMA_STEPS} "
                             f"spacings of the {DEFAULT_GRID_POINTS}-point scan")
        self.grid = grid
        self.kernel = kernel
        # end_slope is phi' in the end cells, for the bumps hiding there
        self.scan, self.table, self.end_slope = _scan_tables(kernel.sigma, grid.samples.tobytes())

    def values(self, weights):
        return self.table @ weights

    def local_max_indices(self, q):
        """Interior scan indices that top both neighbours (one per plateau)."""
        return np.flatnonzero((q[1:-1] >= q[:-2]) & (q[1:-1] > q[2:])) + 1

    def _refined(self, weights, owners, indices, floors):
        """Newton results, as (owners, t, (q, q', q''), converged), from the
        scan local maxima ``indices`` of the certificates ``weights[owners]``
        and from any bump hiding between an endpoint and its neighbour, all
        in one ``newton_on_slope`` call; ``floors`` holds each certificate's
        stopping slope and ``owners`` comes back with the end-cell runs
        appended.

        The scan cannot see a bump that rises and falls entirely within the
        first (or last) grid cell, so the slopes there are checked directly.
        """
        scan = self.scan
        t, lo, hi = scan[indices], scan[indices - 1], scan[indices + 1]
        # per certificate: phi' . weights at scan points 0, 1, -2 and -1
        slopes = np.matmul(self.end_slope, weights[:, :, None])[:, :, 0]
        end_owners, cells = ((slopes[:, 0::2] > 0.0) & (slopes[:, 1::2] < 0.0)).nonzero()
        if end_owners.size:
            ends = scan[[0, 1, -2, -1]]
            end_lo, end_hi = ends[2 * cells], ends[2 * cells + 1]
            owners = np.concatenate((owners, end_owners))
            t, lo, hi = (np.concatenate(pair) for pair in
                         ((t, 0.5 * (end_lo + end_hi)), (lo, end_lo), (hi, end_hi)))
        return (owners, *newton_on_slope(self.kernel, self.grid.samples, weights[owners], t, lo,
                                         hi, floors[owners], GRID_NEWTON_ITERS))

    def supremum(self, weights):
        """Global supremum of q over [0,1] for each row of ``weights``:
        arrays (t, sup q), ties resolved to the smallest t.  Each row gets
        its own scan product, and Newton refines every scan local maximum
        of every row, plus the end-cell bumps, in one ``_refined`` call."""
        best_t, best_v, owners, peaks = [], [], [], []
        for owner, w in enumerate(weights):
            q = self.values(w)
            i_max = int(np.argmax(q))
            best_t.append(float(self.scan[i_max]))
            best_v.append(float(q[i_max]))
            peaks.append(self.local_max_indices(q))
            owners.append(np.full(peaks[-1].size, owner))
        floors = np.array([slope_floor(self.kernel, w) for w in weights])
        runs, t, (v, _, _), _ = self._refined(weights, np.concatenate(owners),
                                              np.concatenate(peaks), floors)
        for owner, t_run, v_run in zip(runs.tolist(), t, v):
            if v_run > best_v[owner] or (v_run == best_v[owner] and t_run < best_t[owner]):
                best_t[owner], best_v[owner] = t_run, v_run
        return np.array(best_t), np.array(best_v)

    def maximizers(self, weights):
        """Stationary local maxima of q within 1e-3 of its scan spread of the
        top: every scan local maximum is Newton-refined, and the value test
        applies to the refined values; maxima closer than
        ``DEFAULT_MERGE_TOL`` merge."""
        q = self.values(weights)
        sup, inf = float(q.max()), float(q.min())
        spread = sup - inf
        if spread <= 1e-15 * max(1.0, abs(sup)):
            return MaximizerSet(np.empty(0), np.empty(0))
        value_tol = 1e-3 * spread
        # q' and q'' cannot be evaluated below their roundoff floors, which
        # grow with |weights|; widen the stationarity test accordingly
        floor = slope_floor(self.kernel, weights)
        slope_tol = max(STATIONARY_TOL, floor)
        curv_tol = max(STATIONARY_TOL, ROUNDOFF_REL * float(np.abs(weights).sum())
                       * self.kernel.deriv_sup_bounds()[1])
        peaks = self.local_max_indices(q)
        _, ts, derivs, _ = self._refined(weights[None], np.zeros(peaks.size, dtype=int), peaks,
                                         np.array([floor]))
        found = []
        for t, value, slope, curv in zip(ts, *derivs):
            if value < sup - value_tol:
                continue
            if abs(slope) <= slope_tol and curv <= curv_tol:
                found.append((t, value))
        found.sort()
        merged = []
        for cand in found:
            if merged and cand[0] - merged[-1][0] < DEFAULT_MERGE_TOL:
                if cand[1] > merged[-1][1]:
                    merged[-1] = cand
            else:
                merged.append(cand)
        if not merged:
            return MaximizerSet(np.empty(0), np.empty(0))
        return MaximizerSet(*map(np.array, zip(*merged)))


def supremum(cert: Certificate):
    """Location and value of sup q over [0,1], from the default scan."""
    t, value = CertificateGrid(cert.grid, cert.kernel).supremum(cert.weights[None])
    return float(t[0]), float(value[0])


def global_maximizers(cert: Certificate) -> MaximizerSet:
    """All near-top stationary local maxima of q, Newton-refined and merged
    (``CertificateGrid.maximizers`` on the default scan)."""
    return CertificateGrid(cert.grid, cert.kernel).maximizers(cert.weights)


def refine_peaks(kernel: Kernel, samples, weights, locations):
    """Polish a local maximum of q from every location on the certificate
    of every row of ``weights``, all runs in lockstep and each on one path.

    Run (c, l) starts from t0 = ``locations[l]`` on ``weights[c]``, and
    q'(t0) picks the side q rises into (the low side where q'(t0) <= 0).
    The far end of that side, t0 +- sigma clipped to [0, 1], halves its
    distance to t0 until q' there has a maximum's sign (< 0 on the high
    side, > 0 on the low one), for up to 60 rounds or down to 1e-15 from
    t0; without that sign the run fails.  Newton (``newton_on_slope``) then
    runs from t0 between t0 and the far end, down to |q'| <= max(
    ``REFINE_SLOPE_TOL``, round-off floor).  The run succeeds only where
    Newton converges within ``REFINE_STEPS`` steps and q'' < 0 at its end,
    so a start already under the floor, where Newton stops at once, must be
    concave too.  One ``_derivatives`` call evaluates every start, one every
    far end and one each round's moved ends, and all Newton runs share one
    call, so a run's bits do not depend on the runs beside it.

    Returns (t, q'' at t, failures): certificates x locations arrays, NaN
    where a run fails, and a dict from each failed (c, l), in row order, to
    its NoConvergenceError message.  A location outside [0, 1] or NaN
    raises ValueError.
    """
    locations = np.asarray(locations, dtype=float)
    if not np.all((locations >= 0.0) & (locations <= 1.0)):
        raise ValueError(f"refinement starts must lie in [0, 1], got {locations}")
    n_locs = locations.size
    owner = np.repeat(np.arange(len(weights)), n_locs)
    t0 = np.tile(locations, len(weights))
    # +1 where q rises to the right of t0, -1 where it rises to the left
    rows = weights[owner]
    side = np.where(_derivatives(kernel, samples, rows, t0)[1] > 0.0, 1.0, -1.0)
    far = np.clip(t0 + side * kernel.sigma, 0.0, 1.0)
    slope = _derivatives(kernel, samples, rows, far)[1]
    for _ in range(60):
        going = (side * slope >= 0.0) & (np.abs(far - t0) >= 1e-15)
        if not going.any():
            break
        far[going] = 0.5 * (far[going] + t0[going])
        slope[going] = _derivatives(kernel, samples, rows[going], far[going])[1]
    runs = np.flatnonzero(side * slope < 0.0)
    floors = np.array([max(REFINE_SLOPE_TOL, slope_floor(kernel, w)) for w in weights])
    t_end, (_, _, curv_end), end_converged = newton_on_slope(
        kernel, samples, rows[runs], t0[runs], np.minimum(t0, far)[runs],
        np.maximum(t0, far)[runs], floors[owner[runs]], REFINE_STEPS)
    ends = dict(zip(runs.tolist(), zip(t_end, curv_end, end_converged)))
    t, curv = np.full((2, t0.size), np.nan)
    failures = {}
    for r, start in enumerate(t0.tolist()):
        end, end_curv, converged = ends.get(r, (None, None, None))
        if end is not None and converged and end_curv < 0.0:
            t[r], curv[r] = end, end_curv
        else:
            failures[divmod(r, n_locs)] = (
                f"no local maximum bracketed near {start}" if end is None
                else f"refinement near {start} ran {REFINE_STEPS} steps without converging"
                if not converged
                else f"refinement near {start} ended at {end}, where q is not concave")
    return t.reshape(-1, n_locs), curv.reshape(-1, n_locs), failures


def dump_curve(cert: Certificate):
    """(t, q(t)) pairs on the default scan, for external plotting."""
    cg = CertificateGrid(cert.grid, cert.kernel)
    return np.column_stack([cg.scan, cg.values(cert.weights)])
