"""Test-side views of the solver and certificate: building a cut model from
a list of cuts and its offsets and slopes, the subgradient alone, and a certificate validity check;
and the reference rules the faster production paths are checked against:
the level projection solved on every row at once, the supremum that
refines every scan local maximum, and the Newton runs, peak refinements
and supremum taken one run at a time, in floats, as the batched ones must
reproduce bit for bit.  The command-line pipeline never needs
these, so they live with the tests."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from dualspike.certificate import (BRACKET_ULPS, DEFAULT_MERGE_TOL, GRID_NEWTON_ITERS,
                                   REFINE_SLOPE_TOL, REFINE_STEPS, ROUNDOFF_REL,
                                   CertificateGrid, slope_floor)
from dualspike.errors import InfeasibleError, NoConvergenceError
from dualspike.solver import Cut, CutModel, _oracle


def add_cut(model, cut):
    """Append ``cut`` to a ``CutModel`` of one point."""
    model.add(cut.anchor[None], [cut.value], cut.slope[None])


def cut_model(cuts, box_radius):
    """A ``CutModel`` holding ``cuts``, in order."""
    if not cuts:
        raise ValueError("model needs at least one cut")
    model = CutModel(1, cuts[0].slope.size, box_radius)
    for cut in cuts:
        add_cut(model, cut)
    return model


def cut_arrays(cuts):
    """(offsets, slopes) of the model max_i (offsets_i + slopes_i . lam) of
    ``cuts``, with offsets_i = value_i - slope_i . anchor_i as a ``CutModel``
    rounds them."""
    offsets = np.array([c.value - float(c.slope @ c.anchor) for c in cuts])
    return offsets, np.array([c.slope for c in cuts])


def model_minimum(cuts, box_radius):
    """(value, argmin) of the polyhedral model of ``cuts`` over the box."""
    return cut_model(cuts, box_radius).minima()[0]


def lp_minimum(offsets, slopes, box_radius):
    """(value, argmin) of max_i (offsets_i + slopes_i . x) over the box,
    solved by a ``CutModel`` holding one row per piece.  With no pieces the
    LP is unbounded and ``CutModel.minima`` raises NoConvergenceError."""
    slopes = np.asarray(slopes, dtype=float)
    model = CutModel(1, slopes.shape[1], box_radius)
    for offset, slope in zip(np.asarray(offsets, dtype=float), slopes):
        add_cut(model, Cut(np.zeros(slope.size), float(offset), slope))
    return model.minima()[0]


def subgradient(problem, weights):
    """A subgradient of Psi and the certificate argmax when it is active.

    Returns (slope, t_active); t_active is None on the inactive branch
    (sup < 1), where the subgradient is just -y.
    """
    weights = np.asarray(weights, dtype=float)
    grid = CertificateGrid(problem.measurements.grid, problem.kernel)
    _, slopes, t_active = _oracle(problem.penalty, problem.measurements.y[None],
                                  weights[None], grid)
    return slopes[0], None if np.isnan(t_active[0]) else float(t_active[0])


@dataclass(frozen=True)
class ValidationReport:
    """How close a certificate comes to touching 1 exactly on the support."""

    source_errors: np.ndarray
    off_support_sup: float
    passed: bool


def validate_certificate(cert, src, tol, exclusion=DEFAULT_MERGE_TOL):
    """Check q = 1 on the support and q <= 1 away from it, on the default scan."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    cg = CertificateGrid(cert.grid, cert.kernel)
    source_errors = np.abs(cert.value(src.locations) - 1.0)
    q = cg.values(cert.weights)
    away = np.all(np.abs(cg.scan[:, None] - src.locations[None, :]) > exclusion, axis=1)
    off_sup = float(q[away].max()) if np.any(away) else -np.inf
    passed = bool(np.all(source_errors <= tol) and off_sup <= 1.0 + tol)
    return ValidationReport(source_errors, off_sup, passed)


def full_row_projection(point, a_mat, b_vec):
    """Projection of ``point`` onto {x : A x <= b} by one least-distance
    NNLS solve on every row, then two min-norm corrections onto the rows
    with a positive multiplier; tolerances as in
    ``numerics.project_polyhedron``."""
    point = np.asarray(point, dtype=float)
    norms = np.linalg.norm(a_mat, axis=1)
    keep = norms > 0.0
    a_mat = np.asarray(a_mat, dtype=float)[keep] / norms[keep, None]
    b_vec = np.asarray(b_vec, dtype=float)[keep] / norms[keep]
    n = point.size
    feas_tol = max(1e-12, 1e-14 * float(np.linalg.norm(point)))
    excess = a_mat @ point - b_vec
    scale = float(excess.max(initial=-np.inf))
    if scale <= feas_tol:
        return point.copy()
    e_mat = np.vstack([-a_mat.T, excess / scale])
    target = np.zeros(n + 1)
    target[n] = 1.0
    mult, _ = nnls(e_mat, target)
    resid = e_mat @ mult - target
    if resid[n] >= 0.0:
        raise InfeasibleError("constraint set is (numerically) empty")
    x = point - scale * resid[:n] / resid[n]
    active = mult > 0.0
    for _ in range(2):
        x -= np.linalg.lstsq(a_mat[active], a_mat[active] @ x - b_vec[active], rcond=None)[0]
    feas_tol = max(feas_tol, 1e-14 * float(np.linalg.norm(x)))
    if not float((a_mat @ x - b_vec).max()) <= feas_tol:
        raise InfeasibleError("constraint set is (numerically) empty")
    return x


def supremum_refining_every_peak(cert_grid, weights):
    """``CertificateGrid.supremum`` of one certificate with every scan local
    maximum Newton-refined, whatever its value: (t, sup q), ties to the
    smallest t."""
    q = cert_grid.values(weights)
    i_max = int(np.argmax(q))
    best_t, best_v = float(cert_grid.scan[i_max]), float(q[i_max])
    peaks = cert_grid.local_max_indices(q)
    _, ts, (vs, _, _), _ = cert_grid._refined(
        weights[None], np.zeros(peaks.size, dtype=int), peaks,
        np.array([slope_floor(cert_grid.kernel, weights)]))
    for t, v in zip(ts, vs):
        if v > best_v or (v == best_v and t < best_t):
            best_t, best_v = t, v
    return best_t, best_v


def derivatives_per_run(kernel, samples, weights, t):
    """q(t), q'(t) and q''(t) of one certificate from one kernel exponential,
    as floats."""
    k0, k1, k2 = kernel.value_and_derivatives(t - samples)
    return float(k0 @ weights), float(k1 @ weights), float(k2 @ weights)


def newton_per_run(kernel, samples, weights, t, lo, hi, floor, max_iter, start=None):
    """``certificate.newton_on_slope`` for one run, in floats, one kernel
    evaluation per step: (t, (q, q', q''), converged)."""
    derivs = derivatives_per_run(kernel, samples, weights, t) if start is None else start
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
        derivs = derivatives_per_run(kernel, samples, weights, t)
        if derivs[1] > 0.0:
            lo = t
        else:
            hi = t
        if hi - lo <= BRACKET_ULPS * math.ulp(max(abs(lo), abs(hi))):
            return t, derivs, True
    return t, derivs, False


def certificate_derivative(cert, t, order):
    """q'(t) (``order`` 1) or q''(t) (``order`` 2) of ``cert`` at one
    location, as a float: the kernel derivative on a 1 x m table times the
    weights."""
    table = cert.kernel.derivative(np.array([[t]]) - cert.grid.samples[None, :], order)
    return float((table @ cert.weights)[0])


def refine_location_per_run(cert, t0):
    """``certificate.refine_peaks`` for one run, as a loop in floats with
    one kernel evaluation per slope: (t, q''(t)), or NoConvergenceError
    with the batched run's message."""
    sigma = cert.kernel.sigma
    lo = max(0.0, t0 - sigma)
    hi = min(1.0, t0 + sigma)

    def slope(t):
        return certificate_derivative(cert, t, 1)

    if abs(slope(t0)) < REFINE_SLOPE_TOL:
        if certificate_derivative(cert, t0, 2) < 0.0:
            return t0, certificate_derivative(cert, t0, 2)
        raise NoConvergenceError(f"stationary but not concave at {t0}")
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
        raise NoConvergenceError(f"no local maximum bracketed near {t0}")
    floor = max(REFINE_SLOPE_TOL, slope_floor(cert.kernel, cert.weights))
    t, _, converged = newton_per_run(cert.kernel, cert.grid.samples, cert.weights,
                                     min(max(t0, bl), bh), bl, bh, floor, REFINE_STEPS)
    if not converged:
        raise NoConvergenceError(
            f"refinement near {t0} ran {REFINE_STEPS} steps without converging")
    return t, certificate_derivative(cert, t, 2)


def supremum_per_point(cert_grid, weights):
    """``CertificateGrid.supremum`` of one certificate with its Newton runs
    taken one at a time by ``newton_per_run``: (t, sup q), ties to the
    smallest t."""
    scan, kernel, samples = cert_grid.scan, cert_grid.kernel, cert_grid.grid.samples
    q = cert_grid.values(weights)
    i_max = int(np.argmax(q))
    grid_max = float(q[i_max])
    best_t, best_v = float(scan[i_max]), grid_max
    h = scan[1] - scan[0]
    mass = float(np.abs(weights).sum())
    peaks = cert_grid.local_max_indices(q)
    curv = np.abs(cert_grid.curvature[peaks] @ weights)
    third = h * mass * kernel.deriv_sup_bounds()[2]
    margin = np.maximum(1e-12, 0.125 * h * h * (curv + third)) + ROUNDOFF_REL * mass
    peaks = peaks[q[peaks] + margin >= grid_max]
    starts = [(scan[i], scan[i - 1], scan[i + 1],
               (float(cert_grid.table[i] @ weights), float(cert_grid.slope[i] @ weights),
                float(cert_grid.curvature[i] @ weights)))
              for i in peaks]
    ends = scan[[0, 1, -2, -1]]
    slopes = cert_grid.end_slope @ weights
    for k in (0, 2):
        if slopes[k] > 0.0 and slopes[k + 1] < 0.0:
            starts.append((0.5 * (ends[k] + ends[k + 1]), ends[k], ends[k + 1], None))
    floor = slope_floor(kernel, weights)
    for t0, lo, hi, start in starts:
        t, (v, _, _), _ = newton_per_run(kernel, samples, weights, float(t0), float(lo),
                                         float(hi), floor, GRID_NEWTON_ITERS, start)
        if v > best_v or (v == best_v and t < best_t):
            best_t, best_v = t, v
    return best_t, best_v
