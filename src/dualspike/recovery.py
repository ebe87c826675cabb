"""Primal reconstruction: support from certificate maximizers, amplitudes
from unconstrained least squares against the translate matrix."""

import warnings

import numpy as np

from . import numerics
from .certificate import Certificate, global_maximizers
from .errors import EmptySupportError
from .kernel import Kernel
from .model import SampleGrid, build_phi

SUPPORT_VALUE_THRESHOLD = 1.0 - 1e-3


class RecoveryResult:
    """Estimated support and its least-squares amplitudes."""

    def __init__(self, locations, amplitudes):
        self.locations, self.amplitudes = locations, amplitudes


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
    amplitudes = numerics.least_squares(build_phi(grid, kernel, locations), y)
    if np.any(amplitudes < 0):
        warnings.warn("least-squares amplitudes contain negative entries",
                      stacklevel=2)
    return RecoveryResult(locations, amplitudes)


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
