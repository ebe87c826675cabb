"""Gaussian convolution kernel, its derivatives, and their extremal values.

The kernel is exp(-t^2/sigma^2) (note: no factor 2 in the denominator).
Closed-form derivatives up to order three are provided because the
perturbation bounds and the Newton refinements both need machine-accurate
curvature; finite differences appear only in tests.
"""

import math

import numpy as np

# sup over t of |d/dt exp(-t^2)|-type quantities, scaled by sigma powers in
# deriv_sup_bounds.  The third-derivative coefficient is kept as its radical
# expression, not the rounded decimal.
GRAD_SUP_COEFF = math.sqrt(2.0 / math.e)
CURV_SUP_COEFF = 2.0
THIRD_SUP_COEFF = 4.0 * math.sqrt(9.0 - 3.0 * math.sqrt(6.0)) * math.exp(-(3.0 - math.sqrt(6.0)) / 2.0)

# derivative k of exp(-t^2/s2) is factor_k(t, s2) * exp(-t^2/s2): the one
# formula of each order, shared by ``derivative`` and ``value_and_derivatives``
_FACTORS = {1: lambda t, s2: -2.0 * t / s2,
            2: lambda t, s2: 4.0 * t * t / s2**2 - 2.0 / s2,
            3: lambda t, s2: 12.0 * t / s2**2 - 8.0 * t**3 / s2**3}


class Kernel:
    """Gaussian kernel of width ``sigma`` on the same scale as locations.
    Kernels compare by identity; what compares widths (the scan cache, a
    batch's check) compares ``sigma``."""

    def __init__(self, sigma):
        if not sigma > 0:
            raise ValueError(f"kernel width must be positive, got {sigma}")
        self.sigma = sigma

    def value(self, t):
        """Evaluate exp(-t^2/sigma^2); accepts scalars or arrays.

        u = t/sigma is the one array made: it is squared, negated and
        exponentiated in place, with the bits of exp(-u * u), since a
        product's rounding does not depend on its sign.  ``t`` is not
        modified."""
        u = np.array(t, dtype=float)
        u /= self.sigma
        u *= u
        np.negative(u, out=u)
        return np.exp(u, out=u)[()]

    def derivative(self, t, order):
        """Analytic derivative of the kernel at ``t``.

        Parameters
        ----------
        t : float or ndarray
        order : int
            1, 2 or 3.

        Returns
        -------
        float or ndarray
        """
        if order not in _FACTORS:
            raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
        t = np.asarray(t, dtype=float)
        return _FACTORS[order](t, self.sigma**2) * self.value(t)

    def value_and_derivatives(self, t):
        """The kernel and its first two derivatives at ``t`` from one exponential.

        Returns (value, first, second), each equal to what ``value`` and
        ``derivative(t, 1)``, ``derivative(t, 2)`` return.
        """
        t = np.asarray(t, dtype=float)
        s2 = self.sigma**2
        base = self.value(t)
        return base, _FACTORS[1](t, s2) * base, _FACTORS[2](t, s2) * base

    def deriv_sup_bounds(self):
        """Suprema of |first|, |second| and |third| derivative over the line.

        Returns the triple (sqrt(2)/(sigma sqrt(e)), 2/sigma^2, c/sigma^3)
        where c is the radical constant ``THIRD_SUP_COEFF`` (~3.9036).
        """
        s = self.sigma
        return (GRAD_SUP_COEFF / s, CURV_SUP_COEFF / s**2, THIRD_SUP_COEFF / s**3)
