"""Test-side views of the solver and certificate: building a cut model from
a list of cuts, the subgradient alone, and a certificate validity check;
and the reference rules the faster production paths are checked against:
the level projection solved on every row at once, and the supremum that
refines every scan local maximum.  The command-line pipeline never needs
these, so they live with the tests."""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from dualspike.certificate import DEFAULT_MERGE_TOL, CertificateGrid, slope_floor
from dualspike.errors import InfeasibleError
from dualspike.solver import Cut, CutModel, _oracle


def cut_model(cuts, box_radius):
    """A ``CutModel`` holding ``cuts``, in order."""
    if not cuts:
        raise ValueError("model needs at least one cut")
    model = CutModel(cuts[0].slope.size, box_radius)
    for cut in cuts:
        model.add(cut)
    return model


def model_minimum(cuts, box_radius):
    """(value, argmin) of the polyhedral model of ``cuts`` over the box."""
    return cut_model(cuts, box_radius).minimum()


def lp_minimum(offsets, slopes, box_radius):
    """(value, argmin) of max_i (offsets_i + slopes_i . x) over the box,
    solved by a ``CutModel`` holding one row per piece.  With no pieces the
    LP is unbounded and ``CutModel.minimum`` raises NoConvergenceError."""
    slopes = np.asarray(slopes, dtype=float)
    model = CutModel(slopes.shape[1], box_radius)
    for offset, slope in zip(np.asarray(offsets, dtype=float), slopes):
        model.add(Cut(np.zeros(slope.size), float(offset), slope))
    return model.minimum()


def subgradient(problem, weights):
    """A subgradient of Psi and the certificate argmax when it is active.

    Returns (slope, t_active); t_active is None on the inactive branch
    (sup < 1), where the subgradient is just -y.
    """
    weights = np.asarray(weights, dtype=float)
    grid = CertificateGrid(problem.measurements.grid, problem.kernel)
    _, slope, t_active = _oracle(problem, weights, grid)
    return slope, t_active


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
    """``CertificateGrid.supremum`` with every scan local maximum
    Newton-refined, whatever its value: (t, sup q), ties to the smallest t."""
    q = cert_grid.values(weights)
    i_max = int(np.argmax(q))
    best_t, best_v = float(cert_grid.scan[i_max]), float(q[i_max])
    peaks = cert_grid.local_max_indices(q)
    for t, (v, _, _), _ in cert_grid._refined(weights, peaks,
                                              slope_floor(cert_grid.kernel, weights)):
        if v > best_v or (v == best_v and t < best_t):
            best_t, best_v = t, v
    return best_t, best_v
