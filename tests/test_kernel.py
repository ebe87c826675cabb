"""Kernel values, analytic derivatives, and extremal constants."""

import math

import mpmath
import numpy as np
import pytest

from dualspike.kernel import (CURV_SUP_COEFF, GRAD_SUP_COEFF,
                              THIRD_SUP_COEFF, Kernel)

SIGMAS = [0.05, 0.07, 0.1, 1.0]


def richardson_derivative(fn, t, h):
    """Central difference of fn at t, Richardson-extrapolated once."""
    d = lambda step: (fn(t + step) - fn(t - step)) / (2.0 * step)
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def grid_golden_max(fn, lo, hi, n_grid=20001, iters=200):
    """Dense grid argmax followed by golden-section refinement."""
    xs = np.linspace(lo, hi, n_grid)
    vals = fn(xs)
    i = int(np.argmax(vals))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, n_grid - 1)]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    for _ in range(iters):
        if fn(c) > fn(d):
            b, d = d, c
            c = b - gr * (b - a)
        else:
            a, c = c, d
            d = a + gr * (b - a)
        if b - a < 1e-15:
            break
    x = 0.5 * (a + b)
    return float(fn(x))


class TestValues:
    def test_at_origin(self):
        assert Kernel(0.07).value(0.0) == 1.0

    def test_at_one_width(self):
        assert Kernel(0.1).value(0.1) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_arbitrary_precision(self):
        with mpmath.workdps(50):
            expected = float(mpmath.e ** (-(mpmath.mpf("0.05") / mpmath.mpf("0.07")) ** 2))
        assert Kernel(0.07).value(0.05) == pytest.approx(expected, rel=1e-14)

    def test_range(self):
        rng = np.random.default_rng(0)
        vals = Kernel(0.07).value(rng.uniform(-1, 1, 500))
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            Kernel(0.0)
        with pytest.raises(ValueError):
            Kernel(-1.0)


class TestDerivatives:
    def test_first_vanishes_at_origin(self):
        assert Kernel(1.0).derivative(0.0, 1) == 0.0

    def test_second_at_origin(self):
        assert Kernel(1.0).derivative(0.0, 2) == pytest.approx(-2.0, rel=1e-15)

    def test_third_matches_finite_differences(self):
        k = Kernel(0.07)
        fd = richardson_derivative(lambda t: k.derivative(t, 2), 0.03, 1e-5)
        assert k.derivative(0.03, 3) == pytest.approx(fd, rel=1e-8)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            Kernel(1.0).derivative(0.1, 0)
        with pytest.raises(ValueError):
            Kernel(1.0).derivative(0.1, 4)

    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_five_point_differences(self, sigma, order):
        k = Kernel(sigma)
        lower = k.value if order == 1 else (lambda t: k.derivative(t, order - 1))
        rng = np.random.default_rng(42)
        ts = rng.uniform(-1.0, 1.0, 200)
        h = 1e-4 * sigma
        # five-point central difference of the next-lower-order function
        fd = (-lower(ts + 2 * h) + 8 * lower(ts + h)
              - 8 * lower(ts - h) + lower(ts - 2 * h)) / (12.0 * h)
        exact = k.derivative(ts, order)
        scale = k.deriv_sup_bounds()[order - 1]
        err = np.abs(fd - exact)
        assert np.all(err <= np.maximum(1e-6 * np.abs(exact), 1e-9 * scale))

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_parity(self, sigma):
        k = Kernel(sigma)
        rng = np.random.default_rng(7)
        ts = rng.uniform(-1.0, 1.0, 200)
        np.testing.assert_allclose(k.value(ts), k.value(-ts), rtol=1e-15)
        np.testing.assert_allclose(k.derivative(ts, 1), -k.derivative(-ts, 1), rtol=1e-15)
        np.testing.assert_allclose(k.derivative(ts, 2), k.derivative(-ts, 2), rtol=1e-15)
        np.testing.assert_allclose(k.derivative(ts, 3), -k.derivative(-ts, 3), rtol=1e-14)

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_value_and_derivatives_one_exponential(self, sigma, monkeypatch):
        k = Kernel(sigma)
        rng = np.random.default_rng(8)
        for ts in (rng.uniform(-1.0, 1.0, 200), rng.uniform(-1.0, 1.0, (7, 5)), 0.03):
            value, first, second = k.value_and_derivatives(ts)
            np.testing.assert_array_equal(value, k.value(ts))
            np.testing.assert_array_equal(first, k.derivative(ts, 1))
            np.testing.assert_array_equal(second, k.derivative(ts, 2))
        calls = []
        value = Kernel.value
        monkeypatch.setattr(Kernel, "value", lambda self, t: calls.append(t) or value(self, t))
        k.value_and_derivatives(rng.uniform(-1.0, 1.0, 10))
        assert len(calls) == 1

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_sup_bounds_dominate(self, sigma):
        k = Kernel(sigma)
        sups = k.deriv_sup_bounds()
        rng = np.random.default_rng(3)
        ts = rng.uniform(-1.0, 1.0, 200)
        for order in (1, 2, 3):
            assert np.all(np.abs(k.derivative(ts, order)) <= sups[order - 1] * (1 + 1e-12))


class TestSupBounds:
    def test_unit_width(self):
        m1, m2, m3 = Kernel(1.0).deriv_sup_bounds()
        assert m1 == pytest.approx(math.sqrt(2.0 / math.e), rel=1e-15)
        assert m2 == 2.0
        assert m3 == pytest.approx(3.9036, abs=5e-5)

    def test_width_scaling(self):
        ones = np.array(Kernel(1.0).deriv_sup_bounds())
        twos = np.array(Kernel(2.0).deriv_sup_bounds())
        np.testing.assert_allclose(twos, ones / np.array([2.0, 4.0, 8.0]), rtol=1e-15)

    def test_radical_constants(self):
        assert GRAD_SUP_COEFF == pytest.approx(math.sqrt(2.0) / math.sqrt(math.e), rel=1e-15)
        assert CURV_SUP_COEFF == 2.0
        expected = 4.0 * math.sqrt(9.0 - 3.0 * math.sqrt(6.0)) * math.exp(-(3.0 - math.sqrt(6.0)) / 2.0)
        assert THIRD_SUP_COEFF == pytest.approx(expected, rel=1e-15)

    def test_against_global_search(self):
        k = Kernel(0.07)
        sups = k.deriv_sup_bounds()
        for order in (1, 2, 3):
            found = grid_golden_max(lambda t, o=order: np.abs(k.derivative(t, o)),
                                    -5 * k.sigma, 5 * k.sigma)
            assert found == pytest.approx(sups[order - 1], rel=1e-10)
