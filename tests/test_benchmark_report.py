"""Constants report and certificate diagnostics on the main benchmark run."""

import concurrent.futures
import math

import numpy as np
import pytest

from dualspike import bounds, experiments
from dualspike.certificate import Certificate
from dualspike.experiments import run_noise
from helpers import validate_certificate


@pytest.fixture(scope="module")
def bench3_report(bench3_run):
    cfg, problem, state, _ = bench3_run
    report = bounds.full_report(cfg.source_model(), cfg.sample_grid(),
                                cfg.kernel(), state.iterate, cfg.pi, cfg.tau)
    return cfg, problem, state, report


class TestBenchmarkCertificate:
    def test_validates_on_support(self, bench3_run):
        cfg, problem, state, _ = bench3_run
        cert = Certificate(state.iterate, problem.measurements.grid, problem.kernel)
        result = validate_certificate(cert, cfg.source_model(), tol=1e-4)
        assert result.passed
        assert result.source_errors.max() <= 1e-4


class TestBenchmarkReport:
    def test_core_fields_complete(self, bench3_report):
        _, _, _, report = bench3_report
        assert report.curvatures is not None and np.all(report.curvatures < 0)
        assert np.all(report.location_radii > 0)
        assert np.all(report.dual_radii > 0)
        assert np.all(report.location_rates > 0)
        assert report.amp_rate_log10 > 300.0 and report.amp_rate_linear is None
        assert report.perturbation_limit_log10 < -300.0
        assert report.sigma_min_jacobian > 0.0
        assert report.drift is not None and report.drift > 0
        assert report.jacobian_rate > 0
        assert report.noise_rate > 0 and report.noise_radius > 0
        assert report.errors == {}

    def test_selected_samples(self, bench3_report):
        _, _, _, report = bench3_report
        np.testing.assert_array_equal(report.selected_samples, [4, 5, 12, 13, 17, 18])
        np.testing.assert_array_equal(report.kept_dual_indices, [5, 13, 18])

    def test_jacobian_determinant_consistency(self, bench3_report):
        _, _, _, report = bench3_report
        jac = report.jacobian
        singulars = np.linalg.svd(jac, compute_uv=False)
        det = np.linalg.det(jac)
        assert det != 0.0
        # both |det| routes lose eps * condition-number digits, so the
        # comparison tolerance must scale with the conditioning
        cond = singulars[0] / singulars[-1]
        rel_tol = max(1e-8, 100.0 * np.finfo(float).eps * cond)
        assert abs(det) == pytest.approx(float(np.prod(singulars)), rel=rel_tol)

    def test_drift_rate_order_of_magnitude(self, bench3_report):
        cfg, _, _, report = bench3_report
        k = 3
        ct = float(report.location_rates.max())
        approx = (k * math.sqrt(k) * cfg.pi * ct / cfg.sigma**2
                  * (ct + math.sqrt(k) * report.drift * cfg.tau))
        ratio = report.jacobian_rate / approx
        assert 1.0 / 30.0 <= ratio <= 30.0

    def test_rate_form_ratio_reported(self, bench3_report):
        _, _, _, report = bench3_report
        assert report.location_rates_alt is not None
        np.testing.assert_allclose(
            report.rate_form_ratio,
            report.location_rates / report.location_rates_alt, rtol=1e-12)


class TestNoiseSweepEdges:
    def test_one_worker_per_point_at_most(self, tmp_path, monkeypatch):
        from conftest import three_spike_config
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks):
                return map(func, tasks)

        # run_noise imports the pool class only when it starts workers
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiments, "noise_grid", lambda: np.array([0.001, 0.02]))
        cfg = three_spike_config(iterations=100)
        run_noise(cfg, tmp_path, jobs=64)
        assert workers == [2]

    def test_workers_take_contiguous_chunks(self, tmp_path, monkeypatch):
        from conftest import three_spike_config
        chunks = []

        class SerialPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks):
                tasks = list(tasks)
                chunks.extend([index for index, _ in points] for _, _, points in tasks)
                return map(func, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiments, "noise_grid", lambda: np.linspace(1e-3, 5e-3, 5))
        run_noise(three_spike_config(iterations=100), tmp_path, jobs=2)
        assert chunks == [[0, 1, 2], [3, 4]]

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        # two workers take contiguous chunks of 3 and 2 points: a point's
        # result must not depend on which points share its batch
        from conftest import three_spike_config
        monkeypatch.setattr(experiments, "noise_grid",
                            lambda: np.array([2e-6, 4e-4, 0.001, 0.006, 0.02]))
        cfg = three_spike_config(iterations=100)
        (_, path_serial), _ = run_noise(cfg, tmp_path / "serial", jobs=1)
        (_, path_par), _ = run_noise(cfg, tmp_path / "par", jobs=2)
        with open(path_serial, "rb") as a, open(path_par, "rb") as b:
            assert a.read() == b.read()
