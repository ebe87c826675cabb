"""Certificate evaluation, maximizer search, validation, and refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import three_spike_config
from dualspike import certificate
from dualspike.certificate import (DEFAULT_GRID_POINTS, Certificate,
                                   CertificateGrid, global_maximizers,
                                   refine_peaks, slope_floor, supremum)
from dualspike.experiments import build_problem, reference_run, run_noise
from dualspike.kernel import Kernel
from dualspike.model import SampleGrid, SourceModel, synthesize, uniform_noise
from dualspike.solver import PenaltyProblem, solve
from helpers import (certificate_derivative, certificate_value, supremum_refining_every_peak,
                     validate_certificate)

SCAN_STEP = 1.0 / (DEFAULT_GRID_POINTS - 1)
BRUTE_POINTS = 200_001


@st.composite
def certificates(draw):
    """Random weights on random samples; optionally one dominant bump whose
    peak lies strictly inside the first or last scan cell."""
    sigma = draw(st.floats(0.03, 0.3))
    samples = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(samples),
                            max_size=len(samples)))
    squeeze = draw(st.sampled_from(["none", "left", "right"]))
    if squeeze != "none":
        offset = draw(st.floats(0.05, 0.95)) * SCAN_STEP
        samples.append(offset if squeeze == "left" else 1.0 - offset)
        weights.append(100.0)
    order = np.argsort(samples)
    samples = np.array(samples)[order]
    keep = np.concatenate([[True], np.diff(samples) > 0])
    return Certificate(np.array(weights)[order][keep], SampleGrid(samples[keep]), Kernel(sigma))


@st.composite
def heavy_certificates(draw):
    """``certificates()`` with weights scaled up to 1e6, or a certificate
    mirrored about t = 1/2 (samples s and 1 - s, equal weights), whose
    mirrored peaks tie up to round-off."""
    if draw(st.booleans()):
        cert = draw(certificates())
        return Certificate(cert.weights * 10.0 ** draw(st.floats(0.0, 6.0)), cert.grid,
                           cert.kernel)
    sigma = draw(st.floats(0.03, 0.3))
    left = np.unique(np.round(draw(st.lists(st.floats(0.0, 0.49), min_size=1, max_size=5)), 6))
    weights = draw(st.lists(st.floats(-1.0, 1.0), min_size=left.size, max_size=left.size))
    weights = np.array(weights) * 10.0 ** draw(st.floats(0.0, 6.0))
    return Certificate(np.concatenate([weights, weights[::-1]]),
                       SampleGrid(np.concatenate([left, 1.0 - left[::-1]])), Kernel(sigma))


@pytest.fixture(scope="module")
def single_bump():
    grid = SampleGrid([0.5])
    return Certificate([1.0], grid, Kernel(0.1))


@pytest.fixture
def scan_points(monkeypatch):
    """Sets the scan's point count.  The scan tables are cached by (sigma,
    samples) alone, so the cache is emptied when the count changes and
    again at the end: no table of another count outlives the test."""
    def use(points):
        monkeypatch.setattr(certificate, "DEFAULT_GRID_POINTS", points)
        certificate._scan_tables.cache_clear()
    yield use
    certificate._scan_tables.cache_clear()


@pytest.fixture(scope="module")
def small_converged():
    """A converged certificate on a separated two-spike problem."""
    src = SourceModel([0.3, 0.7], [1.0, 0.8])
    grid = SampleGrid.equispaced(9)
    kernel = Kernel(0.12)
    ms = synthesize(src, grid, kernel)
    state = solve(PenaltyProblem(ms, kernel, 2.0 * 1.8, 1e3), max_iters=300)
    return src, Certificate(state.iterate, grid, kernel)


class TestEvaluation:
    def test_zero_weights(self):
        cert = Certificate(np.zeros(5), SampleGrid.equispaced(5), Kernel(0.1))
        assert certificate_value(cert, 0.37) == 0.0
        for order in (1, 2):
            assert certificate_derivative(cert, 0.37, order) == 0.0

    def test_single_sample(self, single_bump):
        assert certificate_value(single_bump, 0.5) == 1.0

    def test_linearity(self):
        grid = SampleGrid.equispaced(7)
        kernel = Kernel(0.09)
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam, mu = rng.normal(size=7), rng.normal(size=7)
            a, b = rng.normal(), rng.normal()
            t = rng.uniform(0, 1)
            combined = Certificate(a * lam + b * mu, grid, kernel)
            parts = (a * certificate_value(Certificate(lam, grid, kernel), t)
                     + b * certificate_value(Certificate(mu, grid, kernel), t))
            assert certificate_value(combined, t) == pytest.approx(parts, rel=1e-12, abs=1e-14)


class TestSupremum:
    def test_zero_weights_tie_rule(self):
        cert = Certificate(np.zeros(5), SampleGrid.equispaced(5), Kernel(0.1))
        t, v = supremum(cert)
        assert t == 0.0 and v == 0.0

    def test_negative_bump_boundary(self):
        cert = Certificate([-1.0], SampleGrid([0.5]), Kernel(0.1))
        t, v = supremum(cert)
        assert t == 0.0
        assert v == pytest.approx(-np.exp(-25.0), rel=1e-12)

    def test_against_brute_force(self):
        grid = SampleGrid.equispaced(5)
        kernel = Kernel(0.1)
        scan = np.linspace(0.0, 1.0, 1_000_001)
        table = kernel.value(scan[:, None] - grid.samples[None, :])
        rng = np.random.default_rng(14)
        for _ in range(10):
            lam = rng.normal(size=5)
            cert = Certificate(lam, grid, kernel)
            _, v = supremum(cert)
            brute = float((table @ lam).max())
            assert v == pytest.approx(brute, abs=1e-7)
            assert v >= brute - 1e-9

    @pytest.mark.parametrize("peak", [SCAN_STEP / 3, 1.0 - SCAN_STEP / 3])
    def test_bump_squeezed_against_endpoint(self, peak):
        # the peak lies inside the first (last) scan cell, where no interior
        # scan point tops both neighbours
        cert = Certificate([1.0], SampleGrid([peak]), Kernel(0.1))
        cg = CertificateGrid(cert.grid, cert.kernel)
        assert cg.local_max_indices(cg.values(cert.weights)).size == 0
        t, v = supremum(cert)
        assert t == pytest.approx(peak, abs=1e-12)
        assert v == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(certificates())
    def test_matches_dense_scan(self, cert):
        scan = np.linspace(0.0, 1.0, BRUTE_POINTS)
        brute = float((cert.kernel.value(scan[:, None] - cert.grid.samples) @ cert.weights).max())
        t, v = supremum(cert)
        mass = float(np.abs(cert.weights).sum())
        # the dense scan misses the maximum by at most half the curvature
        # bound times the squared half-step; both sides carry round-off
        step = 1.0 / (BRUTE_POINTS - 1)
        quantization = 0.5 * mass * cert.kernel.deriv_sup_bounds()[1] * (0.5 * step) ** 2
        roundoff = 1e-13 * mass
        assert 0.0 <= t <= 1.0
        assert v == pytest.approx(certificate_value(cert, t), abs=roundoff)
        assert brute - roundoff <= v <= brute + quantization + roundoff

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(certificates(), heavy_certificates()))
    def test_matches_refining_every_peak(self, cert):
        # the batched supremum refines every scan local maximum too, with
        # the runs of all rows in one call
        cg = CertificateGrid(cert.grid, cert.kernel)
        (t,), (v,) = cg.supremum(cert.weights[None])
        assert (t, v) == supremum_refining_every_peak(cg, cert.weights)

    def test_matches_refining_every_peak_on_noisy_solve(self):
        # bundle iterates carry |lambda|_1 up to ~1e6 with several peaks near 1
        cfg = three_spike_config()
        problem = build_problem(cfg, noise=uniform_noise(cfg.samples.size, 2e-3, 0))
        state = solve(problem, max_iters=100)
        cg = CertificateGrid(problem.measurements.grid, problem.kernel)
        ts, vs = cg.supremum(np.array(state.iterate_history))
        for t, v, weights in zip(ts, vs, state.iterate_history):
            assert (t, v) == supremum_refining_every_peak(cg, weights)

    def test_dominates_random_points(self, small_converged):
        _, cert = small_converged
        _, v = supremum(cert)
        rng = np.random.default_rng(5)
        ts = rng.uniform(0, 1, 1000)
        assert np.all(v >= certificate_value(cert, ts) - 1e-9)


class TestGlobalMaximizers:
    def test_zero_weights_empty(self):
        cert = Certificate(np.zeros(5), SampleGrid.equispaced(5), Kernel(0.1))
        assert global_maximizers(cert).locations.size == 0

    def test_single_bump(self, single_bump):
        maxima = global_maximizers(single_bump)
        assert maxima.locations.size == 1
        assert maxima.locations[0] == pytest.approx(0.5, abs=1e-12)
        assert maxima.values[0] == pytest.approx(1.0, rel=1e-12)
        # q'' there is the kernel's: the maximum is the bump's own
        assert certificate_derivative(single_bump, maxima.locations[0], 2) == pytest.approx(
            -2.0 / 0.1**2, rel=1e-10)

    def test_stationarity_of_returned_maxima(self, small_converged):
        _, cert = small_converged
        maxima = global_maximizers(cert)
        assert maxima.locations.size == 2
        for t in maxima.locations:
            assert abs(certificate_derivative(cert, t, 1)) <= 1e-9
            assert certificate_derivative(cert, t, 2) <= 1e-9

    def test_grid_resolution_stability(self, small_converged, scan_points):
        _, cert = small_converged
        coarse = global_maximizers(cert)
        scan_points(8001)
        fine = global_maximizers(cert)
        assert coarse.locations.size == fine.locations.size
        np.testing.assert_allclose(coarse.locations, fine.locations, atol=1e-4)


class TestValidate:
    def test_zero_certificate_fails(self):
        src = SourceModel([0.3, 0.7], [1.0, 1.0])
        cert = Certificate(np.zeros(9), SampleGrid.equispaced(9), Kernel(0.1))
        report = validate_certificate(cert, src, tol=1e-4)
        assert not report.passed
        np.testing.assert_allclose(report.source_errors, [1.0, 1.0], rtol=1e-15)

    def test_converged_certificate_passes(self, small_converged):
        src, cert = small_converged
        report = validate_certificate(cert, src, tol=1e-4)
        assert report.passed
        assert report.off_support_sup <= 1.0 + 1e-4

    def test_shifted_support_fails(self, small_converged):
        src, cert = small_converged
        shifted = SourceModel(src.locations + 0.05, src.amplitudes)
        assert not validate_certificate(cert, shifted, tol=1e-4).passed

    def test_tol_validation(self, small_converged):
        src, cert = small_converged
        with pytest.raises(ValueError):
            validate_certificate(cert, src, tol=0.0)


def refine_one(cert, t0):
    """``refine_peaks`` from one start on one certificate: (t, its failure
    message or None)."""
    t, _, failures = refine_peaks(cert.kernel, cert.grid.samples, cert.weights[None], [t0])
    return float(t[0, 0]), failures.get((0, 0))


class TestRefineLocation:
    """``refine_peaks`` from one location."""

    def test_fixed_point(self, single_bump):
        assert refine_one(single_bump, 0.5) == (0.5, None)

    def test_converges_from_offset(self, single_bump):
        t, failure = refine_one(single_bump, 0.45)
        assert failure is None
        assert abs(t - 0.5) < 1e-12
        assert abs(certificate_derivative(single_bump, t, 1)) < 1e-12

    def test_non_concave_fails(self):
        # the minimum of a dip: q rises to neither side
        cert = Certificate([-1.0], SampleGrid([0.5]), Kernel(0.1))
        t, failure = refine_one(cert, 0.5)
        assert np.isnan(t) and failure == "no local maximum bracketed near 0.5"

    def test_valley_start_under_the_slope_floor_fails(self):
        # the valley between equal bumps of weight 1e6: from just right of
        # it the high end brackets the bump at 0.6, but |q'| there lies under
        # Newton's floor, so Newton stops at the start, where q'' > 0
        cert = Certificate([1e6, 1e6], SampleGrid([0.4, 0.6]), Kernel(0.1))
        t0 = 0.5 + 1e-15
        assert 0.0 < certificate_derivative(cert, t0, 1) < slope_floor(cert.kernel, cert.weights)
        assert certificate_derivative(cert, t0, 2) > 1e8
        t, failure = refine_one(cert, t0)
        assert np.isnan(t)
        assert failure == f"refinement near {t0} ended at {t0}, where q is not concave"

    @pytest.mark.parametrize("samples,weights,t0,peak", [
        # the convex flank of a bump at 0.5: q' = 8.44, q'' = +29.5 at 0.42
        ([0.5], [1.0], 0.42, 0.5),
        # the valley between equal bumps at 0.4 and 0.6 (whose tails move
        # their peaks by 4e-3): q'' = +147 at 0.49989
        ([0.4, 0.6], [1.0, 1.0], 0.49989, 0.4)])
    def test_convex_start_reaches_a_maximum(self, samples, weights, t0, peak):
        # the bracket is centred on t0, so bisecting it would land on t0,
        # where q' is far from 0
        cert = Certificate(weights, SampleGrid(samples), Kernel(0.1))
        assert certificate_derivative(cert, t0, 2) > 0.0
        t, failure = refine_one(cert, t0)
        assert failure is None
        assert abs(t - peak) < 0.01
        assert abs(certificate_derivative(cert, t, 1)) < 1e-12
        assert certificate_derivative(cert, t, 2) < 0.0

    def test_no_bracket_in_tail(self, single_bump):
        t, failure = refine_one(single_bump, 0.05)
        assert np.isnan(t) and failure == "no local maximum bracketed near 0.05"

    @pytest.mark.parametrize("t0", [1.5, -0.05, float("nan")])
    def test_start_outside_domain_raises(self, bench3_run, t0):
        # far in the reference certificate's Gaussian tail |q'| < 1e-12, so
        # a start at 1.5 once came back as a "maximizer" outside [0, 1]
        _, problem, state, _ = bench3_run
        cert = Certificate(state.iterate, problem.measurements.grid, problem.kernel)
        for locations in ([t0], [0.25, t0]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                refine_peaks(cert.kernel, cert.grid.samples, cert.weights[None], locations)


class TestRefinementStops:
    """Every safeguarded Newton run ends on a stopping rule, not on max_iter."""

    @pytest.fixture
    def outcomes(self, monkeypatch):
        converged = []
        newton = certificate.newton_on_slope

        def recording(*args):
            result = newton(*args)
            converged.extend(result[2])
            return result

        monkeypatch.setattr(certificate, "newton_on_slope", recording)
        return converged

    def test_three_spike_reference_solve(self, outcomes, tmp_path):
        cfg = three_spike_config()
        # the reference stage refines the final certificate's peaks for its report
        _, _, iterates, report = reference_run(cfg, 500, tmp_path)
        assert report.refined_peaks is not None
        assert len(outcomes) >= len(iterates)
        assert all(outcomes)

    def test_noise_sweep(self, outcomes, tmp_path):
        _, rows = run_noise(three_spike_config(seed=1), tmp_path)
        assert all(r[10] == "" for r in rows)
        assert len(outcomes) >= 34 * 100
        assert all(outcomes)


class TestCertificateGrid:
    @pytest.fixture
    def scan_101(self, scan_points):
        scan_points(101)

    def test_needs_a_resolved_kernel(self, scan_points):
        # ten scan spacings: 2.5e-3 on the default scan, 0.1 on a 101-point one
        grid = SampleGrid.equispaced(5)
        assert certificate.min_kernel_width() == 10.0 / (DEFAULT_GRID_POINTS - 1)
        with pytest.raises(ValueError, match="spacings"):
            CertificateGrid(grid, Kernel(2.4e-3))
        CertificateGrid(grid, Kernel(2.5e-3))
        scan_points(101)
        with pytest.raises(ValueError, match="spacings of the 101-point scan"):
            CertificateGrid(grid, Kernel(0.099))
        CertificateGrid(grid, Kernel(0.1))

    def test_curvature_table(self):
        # phi'' is evaluated where it is needed; the one table formula,
        # Kernel.value, squares, negates and exponentiates u = t/sigma in
        # place and keeps the bits of exp(-u * u), leaving t as it was
        kernel = Kernel(0.07)
        scan = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
        inputs = [0.0123, -0.3, scan, scan[:, None] - np.random.default_rng(5).uniform(size=21)]
        for t in inputs:
            before = np.copy(t)
            u = np.asarray(t, dtype=float) / kernel.sigma
            got = kernel.value(t)
            assert np.shape(got) == np.shape(t) and np.asarray(got).dtype == np.float64
            assert np.array_equal(np.asarray(got).view(np.int64),
                                  np.exp(-u * u).view(np.int64))
            np.testing.assert_array_equal(t, before)
        assert type(kernel.value(0.25)) is np.float64

    def test_table_shape(self, scan_101):
        cg = CertificateGrid(SampleGrid.equispaced(5), Kernel(0.1))
        assert cg.table.shape == (101, 5)

    def test_tables_are_shared_and_read_only(self):
        # the cache holds the scan, phi on it, and phi' at the first two
        # and last two scan points: no full phi' or phi'' table
        grid, kernel = SampleGrid.equispaced(5), Kernel(0.1)
        tables = certificate._scan_tables(kernel.sigma, grid.samples.tobytes())
        assert len(tables) == 3
        scan, table, end_slope = tables
        diffs = scan[:, None] - grid.samples[None, :]
        np.testing.assert_array_equal(scan, np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS))
        np.testing.assert_array_equal(table, kernel.value(diffs))
        np.testing.assert_array_equal(end_slope, kernel.derivative(diffs[[0, 1, -2, -1]], 1))
        first = CertificateGrid(grid, kernel)
        # equal inputs, not the same objects
        second = CertificateGrid(SampleGrid(np.linspace(0.0, 1.0, 5)), Kernel(0.1))
        for name, array in zip(("scan", "table", "end_slope"), tables):
            assert getattr(first, name) is array and getattr(second, name) is array
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first.table[0, 0] = 0.0

    def test_other_sigma_or_samples_rebuild_the_tables(self):
        certificate._scan_tables.cache_clear()
        inputs = [(SampleGrid.equispaced(5), Kernel(0.1)), (SampleGrid.equispaced(5), Kernel(0.2)),
                  (SampleGrid.equispaced(6), Kernel(0.2)), (SampleGrid.equispaced(5), Kernel(0.1))]
        for builds, (grid, kernel) in enumerate(inputs, start=1):
            cg = CertificateGrid(grid, kernel)
            assert certificate._scan_tables.cache_info().misses == builds
            diffs = cg.scan[:, None] - grid.samples[None, :]
            np.testing.assert_array_equal(cg.table, kernel.value(diffs))

    def test_local_max_indices_match_scalar_scan(self, scan_101):
        cg = CertificateGrid(SampleGrid.equispaced(5), Kernel(0.1))

        def scalar(q):
            return [i for i in range(1, q.size - 1) if q[i] >= q[i - 1] and q[i] > q[i + 1]]

        rng = np.random.default_rng(41)
        cases = [rng.normal(size=n) for n in (3, 4, 50, 4001)]
        cases += [rng.integers(0, 3, size=200).astype(float) for _ in range(20)]
        cases += [np.array([0.0, 1.0, 1.0, 1.0, 0.0]),    # plateau: its right end
                  np.array([0.0, 1.0, 1.0, 2.0, 0.0]),    # plateau rising into a peak
                  np.array([1.0, 1.0, 1.0, 1.0]),         # flat: none
                  np.array([0.0, 2.0, 1.0, 1.0, 3.0, 2.0]),  # maxima next to both ends
                  np.array([5.0, 4.0, 3.0]),              # endpoint maximum only
                  np.array([0.0, 1.0]), np.array([1.0]), np.empty(0)]
        for q in cases:
            got = cg.local_max_indices(q)
            assert list(got) == scalar(q)
