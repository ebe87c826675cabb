"""Test-side views of the solver and certificate: building a cut model from
a list of cuts, the subgradient alone, and a certificate validity check.
The command-line pipeline never needs these, so they live with the tests."""

from dataclasses import dataclass

import numpy as np

from dualspike.certificate import DEFAULT_GRID_POINTS, DEFAULT_MERGE_TOL, CertificateGrid
from dualspike.solver import Cut, CutModel, _oracle


def cut_model(cuts, box_radius):
    """A ``CutModel`` holding ``cuts``, in order."""
    if not cuts:
        raise ValueError("model needs at least one cut")
    model = CutModel(cuts[0].slope.size, box_radius, len(cuts))
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
    model = CutModel(slopes.shape[1], box_radius, slopes.shape[0])
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


def validate_certificate(cert, src, tol, grid_points=DEFAULT_GRID_POINTS,
                         exclusion=DEFAULT_MERGE_TOL):
    """Check q = 1 on the support and q <= 1 away from it."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    cg = CertificateGrid(cert.grid, cert.kernel, grid_points)
    source_errors = np.abs(cert.value(src.locations) - 1.0)
    q = cg.values(cert.weights)
    away = np.all(np.abs(cg.scan[:, None] - src.locations[None, :]) > exclusion, axis=1)
    off_sup = float(q[away].max()) if np.any(away) else -np.inf
    passed = bool(np.all(source_errors <= tol) and off_sup <= 1.0 + tol)
    return ValidationReport(source_errors, off_sup, passed)
