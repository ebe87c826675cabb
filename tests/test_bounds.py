"""Stability constants: formula evaluations against arbitrary-precision
oracles, scaling laws, the reduced Jacobian, and the aggregate report."""

import math

import mpmath
import numpy as np
import pytest

from dualspike import bounds
from dualspike.certificate import Certificate, refine_peaks
from dualspike.errors import (CurvatureSignError, InsufficientSamplesError,
                              RadiusTooLargeError)
from dualspike.kernel import Kernel
from dualspike.model import SampleGrid, SourceModel, synthesize
from dualspike.solver import PenaltyProblem, solve


def mp_third_coeff():
    return 4 * mpmath.sqrt(9 - 3 * mpmath.sqrt(6)) * mpmath.e ** (-(3 - mpmath.sqrt(6)) / 2)


@pytest.fixture(scope="module")
def offgrid_single():
    """One source strictly between samples: a well-conditioned Jacobian."""
    src = SourceModel([0.53], [1.0])
    grid = SampleGrid.equispaced(9)
    kernel = Kernel(0.12)
    ms = synthesize(src, grid, kernel)
    state = solve(PenaltyProblem(ms, kernel, 2.0, 1e3), max_iters=250)
    return src, grid, kernel, Certificate(state.iterate, grid, kernel)


@pytest.fixture(scope="module")
def onsample_single():
    """One source on the middle sample: a singular reduced Jacobian."""
    src = SourceModel([0.5], [1.0])
    grid = SampleGrid.equispaced(7)
    kernel = Kernel(0.1)
    ms = synthesize(src, grid, kernel)
    state = solve(PenaltyProblem(ms, kernel, 2.0, 1e2), max_iters=60)
    return src, grid, kernel, Certificate(state.iterate, grid, kernel)


class TestRadii:
    def test_location_radius_zero_dual_norm(self):
        got = bounds.location_stability_radius(-3.0, 0.1, 16, 0.0)
        assert got == pytest.approx(0.1**2 * 3.0 / (4.0 * 4.0), rel=1e-14)

    def test_location_radius_sample_scaling(self):
        one = bounds.location_stability_radius(-3.0, 0.1, 16, 2.0)
        four = bounds.location_stability_radius(-3.0, 0.1, 64, 2.0)
        assert four == pytest.approx(one / 2.0, rel=1e-13)

    def test_location_radius_against_mpmath(self):
        with mpmath.workdps(50):
            c = mp_third_coeff()
            q2, sig, m, lam = map(mpmath.mpf, ("-400", "0.07", "21", "5.5"))
            expected = float(sig**2 * abs(q2) / (mpmath.sqrt(m) * (4 + 2 * c * lam / sig)))
        got = bounds.location_stability_radius(-400.0, 0.07, 21, 5.5)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_dual_radius_sample_scaling(self):
        one = bounds.dual_stability_radius(-3.0, 0.1, 16, 2.0)
        two = bounds.dual_stability_radius(-3.0, 0.1, 32, 2.0)
        assert two == pytest.approx(one / 2.0, rel=1e-13)

    def test_dual_radius_against_mpmath(self):
        with mpmath.workdps(50):
            c = mp_third_coeff()
            q2, sig, m, lam = map(mpmath.mpf, ("-400", "0.07", "21", "5.5"))
            expected = float(q2**2 * sig**3 * mpmath.sqrt(mpmath.e)
                             / (4 * mpmath.sqrt(2) * (2 + c * lam / sig) * m))
        got = bounds.dual_stability_radius(-400.0, 0.07, 21, 5.5)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_two_path_identity(self):
        rng = np.random.default_rng(40)
        for _ in range(1000):
            q2 = -rng.uniform(0.1, 1e8)
            sigma = rng.uniform(0.02, 2.0)
            m = int(rng.integers(1, 200))
            lam = rng.uniform(0.0, 1e6)
            direct = bounds.dual_stability_radius(q2, sigma, m, lam)
            composed = bounds.dual_stability_radius_composed(q2, sigma, m, lam)
            assert abs(direct - composed) <= 1e-12 * abs(direct)

    def test_curvature_sign_enforced(self):
        with pytest.raises(CurvatureSignError):
            bounds.location_stability_radius(0.0, 0.1, 4, 1.0)
        with pytest.raises(CurvatureSignError):
            bounds.dual_stability_radius(2.0, 0.1, 4, 1.0)


class TestLocationRate:
    def test_zero_dual_norm(self):
        got = bounds.location_error_rate(-3.0, 0.1, 16, 0.0)
        expected = math.sqrt(2 * 16) / (3.0 * 0.1 * math.sqrt(math.e)) + 0.5
        assert got == pytest.approx(expected, rel=1e-13)

    def test_sample_count_growth(self):
        small = bounds.location_error_rate(-3.0, 0.1, 16, 1.0)
        large = bounds.location_error_rate(-3.0, 0.1, 64, 1.0)
        assert large > small
        # leading term scales with sqrt(m)
        tail = 2 * 0.1 / (4 * 0.1 + bounds.THIRD_SUP_COEFF * 1.0)
        assert (large - tail) == pytest.approx(2.0 * (small - tail), rel=1e-12)

    def test_against_mpmath(self):
        with mpmath.workdps(50):
            c = mp_third_coeff()
            q2, sig, m, lam = map(mpmath.mpf, ("-400", "0.07", "21", "5.5"))
            expected = float(
                2 * mpmath.sqrt(2 * m) * (2 * sig + c * lam)
                / (abs(q2) * sig * mpmath.sqrt(mpmath.e) * (4 * sig + c * lam))
                + 2 * sig / (4 * sig + c * lam))
        got = bounds.location_error_rate(-400.0, 0.07, 21, 5.5)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_alt_form_relationship(self):
        # the two forms differ by a 1/sigma factor in the lead term and a
        # factor 2 in the trailing one; check both reductions
        q2, sigma, m, lam = -350.0, 0.25, 12, 3.0
        canonical = bounds.location_error_rate(q2, sigma, m, lam)
        alt = bounds.location_error_rate_alt(q2, sigma, m, lam)
        c = bounds.THIRD_SUP_COEFF
        lead_alt = (alt - 1.0 / (4.0 + c * lam / sigma))
        tail_canon = 2.0 * sigma / (4.0 * sigma + c * lam)
        assert canonical - tail_canon == pytest.approx(lead_alt / sigma, rel=1e-12)


class TestAmplitudeRate:
    def test_unit_case(self):
        log10, linear = bounds.amplitude_error_rate_log10(2.0, 1, 1.0, 1.0)
        assert linear == pytest.approx(math.e, rel=1e-12)
        assert log10 == pytest.approx(math.log10(math.e), rel=1e-12)

    def test_amp_norm_doubling(self):
        one, _ = bounds.amplitude_error_rate_log10(0.5, 9, 1.0, 0.3)
        two, _ = bounds.amplitude_error_rate_log10(0.5, 9, 2.0, 0.3)
        assert two - one == pytest.approx(math.log10(2.0), rel=1e-12)

    def test_narrow_kernel_stays_in_logs(self):
        log10, linear = bounds.amplitude_error_rate_log10(0.07, 21, 1.3, 0.5)
        assert linear is None
        assert log10 == pytest.approx((4 / 0.07**2) / math.log(10)
                                      + math.log10(4 * math.sqrt(21) * 1.3 / (0.07**2 * 0.5)),
                                      rel=1e-12)

    def test_sample_count_monotone(self):
        small, _ = bounds.amplitude_error_rate_log10(0.07, 21, 1.0, 0.5)
        large, _ = bounds.amplitude_error_rate_log10(0.07, 84, 1.0, 0.5)
        assert large > small


class TestPerturbationLimit:
    def test_equal_singular_values(self):
        log10, got = bounds.location_perturbation_limit_log10(0.5, 4, 2.0, 2.0)
        prefactor = 0.5**2 * 2.0 / (4.0 * math.exp(4.0 / 0.25) * 2.0)
        assert got == pytest.approx(prefactor * (math.sqrt(2.0) - 1.0), rel=1e-10)
        assert got == 10.0**log10

    def test_vanishing_sigma_min(self):
        _, wide = bounds.location_perturbation_limit_log10(0.5, 4, 2.0, 2.0)
        _, thin = bounds.location_perturbation_limit_log10(0.5, 4, 2.0, 1e-9)
        assert thin < 1e-9 * wide

    def test_narrow_kernel_log_value(self):
        log10, linear = bounds.location_perturbation_limit_log10(0.07, 21, 3.0, 0.5)
        assert log10 < -300.0
        assert linear == 0.0

    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            bounds.location_perturbation_limit_log10(0.1, 4, 1.0, 2.0)


class TestCurvatureFloor:
    def test_zero_dual_norm(self):
        assert bounds.curvature_floor(-7.0, 0.1, 0.0) == pytest.approx(7.0, rel=1e-14)

    def test_large_dual_norm_limit(self):
        got = bounds.curvature_floor(-7.0, 0.1, 1e12)
        assert got == pytest.approx(3.5, rel=1e-9)

    def test_always_above_half(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            q2 = -rng.uniform(0.1, 1e6)
            floor = bounds.curvature_floor(q2, rng.uniform(0.02, 1.0),
                                           rng.uniform(0.0, 1e7))
            assert 0.5 * abs(q2) < floor <= abs(q2)


class TestDrift:
    def test_curv_mix_coefficient(self):
        exact = 4.0 + bounds.THIRD_SUP_COEFF * math.sqrt(2.0 / math.e)
        assert bounds.CURV_MIX_COEFF == pytest.approx(exact, rel=1e-15)
        assert bounds.CURV_MIX_COEFF == pytest.approx(7.3484, abs=1e-3)

    def test_zero_radius_closed_form(self):
        k, m, sigma, ct, lam, floor = 2, 16, 0.1, 0.4, 3.0, 150.0
        got = bounds.sensitivity_drift_rate(k, m, sigma, ct, lam, 0.0, floor)
        expected = ((bounds.CURV_MIX_COEFF * ct * 4.0 * lam
                     + 2.0 * math.sqrt(2.0) / math.sqrt(math.e) * sigma)
                    * math.sqrt(2.0) / (sigma**2 * floor) ** 2)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_radius_too_large(self):
        with pytest.raises(RadiusTooLargeError):
            bounds.sensitivity_drift_rate(2, 16, 0.1, 0.4, 3.0, 1e6, 1.0)


class TestJacobianRate:
    def test_all_ones_single_source(self):
        got = bounds.jacobian_drift_rate(1, 1.0, 1.0, 1.0, 1.0, 1.0)
        se = math.sqrt(math.e)
        expected = math.sqrt(2.0) * ((2.0 + 4.0)
                                     + (math.sqrt(2.0) / se + 4.0
                                        + 2.0 * math.sqrt(2.0) / se + 8.0
                                        + math.sqrt(2.0) / se
                                        + math.sqrt(2.0) / se))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_penalty_scaling_of_penalty_terms(self):
        base = bounds.jacobian_drift_rate(2, 0.5, 1.0, 3.0, 0.7, 0.2)
        double = bounds.jacobian_drift_rate(2, 0.5, 2.0, 3.0, 0.7, 0.2)
        # the two penalty-free terms stay fixed; everything else doubles
        k, ct, se = 2, 0.7, math.sqrt(math.e)
        fixed = math.sqrt(2.0) * k * (math.sqrt(2 * k) * ct / se
                                      + math.sqrt(2.0 / math.e) * ct) / 0.5
        assert double - fixed == pytest.approx(2.0 * (base - fixed), rel=1e-12)


def jacobian_at_peaks(src, grid, kernel, cert):
    """``assemble_jacobian`` at the refined peaks and q'' there, as
    ``full_report`` calls it."""
    peaks, curvatures, _ = refine_peaks(kernel, grid.samples, cert.weights[None], src.locations)
    return bounds.assemble_jacobian(src, grid, kernel, peaks[0], curvatures[0])


class TestJacobianAssembly:
    def test_single_source_structure(self, offgrid_single):
        src, grid, kernel, cert = offgrid_single
        jac, selected, kept = jacobian_at_peaks(src, grid, kernel, cert)
        assert jac.shape == (2, 2)
        assert selected.size == 2 and kept.size == 1
        assert set(kept).issubset(set(selected))
        # right column holds the negated translates at the selected samples
        t_peak = src.locations[0]
        expected = -kernel.value(t_peak - grid.samples[selected])
        np.testing.assert_allclose(jac[:, 1], expected, atol=1e-6)

    def test_nearest_sample_selection(self):
        src = SourceModel([0.25, 0.63, 0.889], [0.8, 0.5, 0.9])
        grid = SampleGrid.equispaced(21)
        selected, kept = bounds.select_informative_samples(src, grid)
        np.testing.assert_array_equal(selected, [4, 5, 12, 13, 17, 18])
        np.testing.assert_array_equal(kept, [5, 13, 18])

    def test_collision_dedup(self):
        # both sources nearest to the same sample: the second falls back
        src = SourceModel([0.49, 0.51], [1.0, 1.0])
        grid = SampleGrid.equispaced(5)
        selected, kept = bounds.select_informative_samples(src, grid)
        assert len(set(selected)) == 4
        assert kept[0] != kept[1]

    def test_insufficient_samples(self):
        src = SourceModel([0.3, 0.7], [1.0, 1.0])
        grid = SampleGrid([0.2, 0.5, 0.9])
        with pytest.raises(InsufficientSamplesError):
            bounds.select_informative_samples(src, grid)

    def test_translate_block_full_rank(self, offgrid_single):
        src, grid, kernel, cert = offgrid_single
        jac, _, _ = jacobian_at_peaks(src, grid, kernel, cert)
        k = src.n_sources
        right = jac[:, k:]
        assert np.linalg.svd(right, compute_uv=False)[-1] > 0

    def test_determinant_matches_singular_values(self, offgrid_single):
        src, grid, kernel, cert = offgrid_single
        jac, _, _ = jacobian_at_peaks(src, grid, kernel, cert)
        singulars = np.linalg.svd(jac, compute_uv=False)
        det = np.linalg.det(jac)
        assert det != 0.0
        assert abs(det) == pytest.approx(np.prod(singulars), rel=1e-8)


class TestNoiseRate:
    def test_unit_case(self):
        rate, radius = bounds.noise_rate_and_radius(2.0, 1.0)
        assert rate == pytest.approx(1.0, rel=1e-14)
        assert radius == pytest.approx(1.0, rel=1e-14)
        assert bounds.noise_rate_and_radius(2.0, None) == (rate, None)

    def test_scaling(self):
        rate1, rad1 = bounds.noise_rate_and_radius(2.0, 1.0)
        rate2, rad2 = bounds.noise_rate_and_radius(20.0, 1.0)
        assert rate2 == pytest.approx(rate1 / 10.0, rel=1e-13)
        assert rad2 == pytest.approx(100.0 * rad1, rel=1e-13)

    def test_singular_jacobian(self, onsample_single):
        # a source on a sample: the kept sample's phi'(0) zeroes the left
        # block, so sigma_min is exactly 0 and the report has no noise rate
        src, grid, kernel, cert = onsample_single
        report = bounds.full_report(src, grid, kernel, cert.weights, 2.0, 1e2)
        assert report.sigma_min_jacobian == 0.0
        assert report.noise_rate is None and report.noise_radius is None
        assert report.errors["noise_rate"] == "reduced Jacobian is singular"


class TestSingularValuePerturbation:
    def test_lower_bound_holds(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            a = rng.normal(size=(n, n))
            e = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6, 1)
            smin_sum = np.linalg.svd(a + e, compute_uv=False)[-1]
            smin_a = np.linalg.svd(a, compute_uv=False)[-1]
            assert smin_sum >= smin_a - np.linalg.norm(e) - 1e-12


class TestFullReport:
    def test_single_source_complete(self, offgrid_single):
        src, grid, kernel, cert = offgrid_single
        report = bounds.full_report(src, grid, kernel, cert.weights, 2.0, 1e3)
        assert report.errors == {}
        assert report.curvatures[0] < 0
        assert report.location_radii[0] > 0
        assert report.dual_radii[0] > 0
        assert report.location_rates[0] > 0
        assert report.sigma_min_jacobian > 0
        assert report.noise_rate > 0
        assert report.noise_radius > 0
        text = report.to_text()
        assert "noise_rate" in text
        names = [name for name, _ in report.scalar_items()]
        assert len(set(names)) == len(names)
        assert {"noise_rate", "noise_radius", "location_rates_1"} <= set(names)

    def test_error_isolation(self, offgrid_single):
        src, grid, kernel, _ = offgrid_single
        # the zero vector has no stationary maxima: curvature-dependent
        # fields fail soft, translate-matrix fields survive
        report = bounds.full_report(src, grid, kernel, np.zeros(grid.n_samples), 2.0, 1e3)
        assert "curvatures" in report.errors
        assert "jacobian" in report.errors
        assert report.location_rates is None
        assert report.amp_rate_log10 is not None
        assert report.sigma_min_phi > 0

    def test_refines_each_source_once(self, offgrid_single, monkeypatch):
        src, grid, kernel, cert = offgrid_single
        calls = []

        def counting_refine(kern, samples, weights, locations):
            calls.append((weights.tolist(), list(locations)))
            return refine_peaks(kern, samples, weights, locations)

        monkeypatch.setattr(bounds, "refine_peaks", counting_refine)
        report = bounds.full_report(src, grid, kernel, cert.weights, 2.0, 1e3)
        assert report.jacobian is not None
        assert calls == [([cert.weights.tolist()], list(src.locations))]

    def test_items_follow_field_order(self):
        report = bounds.BoundsReport(sigma=0.1, noise_radius=2.0,
                                     source_locations=np.array([0.2, 0.7]),
                                     jacobian=np.eye(2), errors={"drift": "x"})
        items = report.scalar_items()
        names = [k for k, _ in items]
        assert names[:6] == ["sigma", "n_samples", "n_sources", "penalty",
                             "box_radius", "dual_norm"]
        assert names[17:21] == ["noise_radius", "source_locations_1",
                                "source_locations_2", "refined_peaks"]
        assert names[-1] == "kept_dual_indices"
        assert len(names) == 29
        assert dict(items)["source_locations_2"] == 0.7
        assert dict(items)["refined_peaks"] is None
        assert not {"jacobian", "jacobian_1", "errors"} & set(names)


class TestMonotonicitySmoke:
    def test_sample_count_directions(self):
        q2, sigma, lam = -300.0, 0.07, 4.0
        ms = [21, 42, 84]
        d0 = [bounds.location_stability_radius(q2, sigma, m, lam) for m in ms]
        dl = [bounds.dual_stability_radius(q2, sigma, m, lam) for m in ms]
        ct = [bounds.location_error_rate(q2, sigma, m, lam) for m in ms]
        ca = [bounds.amplitude_error_rate_log10(sigma, m, 1.0, 0.5)[0] for m in ms]
        assert d0[0] > d0[1] > d0[2]
        assert dl[0] > dl[1] > dl[2]
        assert ct[0] < ct[1] < ct[2]
        assert ca[0] < ca[1] < ca[2]
