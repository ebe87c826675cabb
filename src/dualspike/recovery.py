"""Primal reconstruction: support from certificate maximizers, amplitudes
from unconstrained least squares against the translate matrix."""

import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics
from .certificate import Certificate, global_maximizers
from .errors import EmptySupportError
from .kernel import Kernel
from .model import SampleGrid, build_phi

SUPPORT_VALUE_THRESHOLD = 1.0 - 1e-3


@dataclass(frozen=True)
class RecoveryResult:
    """Estimated support and amplitudes plus least-squares diagnostics."""

    locations: np.ndarray
    amplitudes: np.ndarray
    residual_norm: float
    sigma_max: float
    sigma_min: float


def recover_amplitudes(grid: SampleGrid, kernel: Kernel, locations, y) -> RecoveryResult:
    """Least-squares amplitudes for a fixed support.

    Negative estimates are kept (the analysis covers the unconstrained
    problem) but trigger a warning.  Raises RankDeficientError when the
    translate matrix is numerically rank deficient.
    """
    locations = np.asarray(locations, dtype=float)
    y = np.asarray(y, dtype=float)
    if locations.size > y.size:
        raise ValueError("more sources than samples")
    phi = build_phi(grid, kernel, locations)
    amplitudes, singulars = numerics.least_squares(phi, y)
    if np.any(amplitudes < 0):
        warnings.warn("least-squares amplitudes contain negative entries",
                      stacklevel=2)
    residual = float(np.linalg.norm(phi @ amplitudes - y))
    return RecoveryResult(locations, amplitudes, residual,
                          float(singulars[0]), float(singulars[-1]))


def recover(cert: Certificate, y) -> RecoveryResult:
    """Full reconstruction from a dual vector: the support is the set of
    certificate maximizers reaching ``SUPPORT_VALUE_THRESHOLD``, and the
    amplitudes follow by least squares."""
    maxima = global_maximizers(cert)
    good = maxima.values >= SUPPORT_VALUE_THRESHOLD
    if not np.any(good):
        raise EmptySupportError(
            f"no certificate maximizer reaches {SUPPORT_VALUE_THRESHOLD}")
    return recover_amplitudes(cert.grid, cert.kernel, maxima.locations[good], y)
