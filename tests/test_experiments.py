"""The experiment drivers read their constants from one reference report:
the same number must appear in every artifact that carries it."""

import csv
import dataclasses

import numpy as np
import pytest

from conftest import three_spike_config
from dualspike import bounds, certificate, experiments
from dualspike.model import uniform_noise
from dualspike.solver import solve


def read_rows(path):
    """CSV rows as dicts, skipping the leading '#' comment line."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    cfg = three_spike_config()
    out = tmp_path_factory.mktemp("three_spike")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "noise_grid", lambda: np.array([2e-6, 2e-3]))
        (noise_path,), _ = experiments.run_noise(cfg, out)
    (lambda_t_path,), _ = experiments.run_lambda_t(cfg, out)
    (t_a_path,), _ = experiments.run_t_a(cfg, out)
    (_, report_path), _ = experiments.run_bounds(cfg, out)
    (report,) = read_rows(report_path)
    return (read_rows(noise_path), read_rows(lambda_t_path), read_rows(t_a_path),
            {name: float(value) for name, value in report.items() if value})


def test_noise_rate_matches_report(artifacts):
    noise, _, _, report = artifacts
    assert len(noise) == 2
    assert {float(row["noise_rate"]) for row in noise} == {report["noise_rate"]}


def test_location_rates_match_report(artifacts):
    _, lambda_t, _, report = artifacts
    for i in (1, 2, 3):
        rates = {float(row["loc_rate"]) for row in lambda_t if row["source"] == str(i)}
        assert rates == {report[f"location_rates_{i}"]}


def test_amplitude_rate_matches_report(artifacts):
    _, _, t_a, report = artifacts
    assert t_a
    assert {float(row["amp_rate_log10"]) for row in t_a} == {report["amp_rate_log10"]}


@pytest.fixture
def table_builds():
    """Scan-table builds from here on, as a process would count them from
    its start."""
    certificate._scan_tables.cache_clear()
    return lambda: certificate._scan_tables.cache_info().misses


def test_solve_command_builds_one_scan_table(table_builds, tmp_path):
    # the solve, the certificate curve and the recovery share one (grid, kernel)
    experiments.run_solve(three_spike_config(iterations=100), tmp_path)
    assert table_builds() == 1


def test_serial_sweep_builds_one_scan_table(table_builds, monkeypatch, tmp_path):
    # the reference and every sweep point share the (grid, kernel)
    monkeypatch.setattr(experiments, "noise_grid", lambda: np.array([2e-6, 2e-3]))
    cfg = dataclasses.replace(three_spike_config(), iterations=100)
    experiments.run_noise(cfg, tmp_path / "noise", jobs=1)
    assert table_builds() == 1


def failing_refiner(monkeypatch, weights, location):
    """Make every refinement from ``location`` on the certificate of
    ``weights`` fail, wherever the drivers refine."""
    def refiner(kernel, samples, stack, locations):
        t, curvatures, failures = certificate.refine_peaks(kernel, samples, stack, locations)
        for c, row in enumerate(stack):
            for l, t0 in enumerate(locations):
                if t0 == location and np.array_equal(row, weights):
                    t[c, l] = curvatures[c, l] = np.nan
                    failures[c, l] = "refinement failed"
        return t, curvatures, failures

    monkeypatch.setattr(experiments, "refine_peaks", refiner)
    monkeypatch.setattr(bounds, "refine_peaks", refiner)


def test_window_refine_failure_rows(bench3_run, monkeypatch, tmp_path):
    # source 2 fails at window iterate p = 50; every other row is as before
    cfg, _, state, _ = bench3_run
    p = 50
    _, lambda_t = experiments.run_lambda_t(cfg, tmp_path / "clean")
    _, t_a = experiments.run_t_a(cfg, tmp_path / "clean")
    failing_refiner(monkeypatch, state.iterate_history[p - 1], cfg.sources[1])
    _, failed_lambda_t = experiments.run_lambda_t(cfg, tmp_path / "failed")
    _, failed_t_a = experiments.run_t_a(cfg, tmp_path / "failed")

    at = [row[:2] for row in lambda_t].index((p, 2))
    _, _, _, dual_err, _, rate, two_rate, _, _ = lambda_t[at]
    assert failed_lambda_t[at] == (p, 2, None, dual_err, None, rate, two_rate, 0,
                                   "refine_failed")
    assert failed_lambda_t[:at] + failed_lambda_t[at + 1:] == lambda_t[:at] + lambda_t[at + 1:]

    at = [row[0] for row in t_a].index(p)
    amp_log10 = t_a[at][4]
    assert failed_t_a[at] == (p, None, None, None, amp_log10, 0, "refine_failed")
    assert failed_t_a[:at] + failed_t_a[at + 1:] == t_a[:at] + t_a[at + 1:]


def test_sweep_refine_failure_row(monkeypatch, tmp_path):
    # source 2 fails at the second sweep point; the first point is as before
    cfg = three_spike_config()
    monkeypatch.setattr(experiments, "noise_grid", lambda: np.array([2e-6, 2e-3]))
    _, rows = experiments.run_noise(cfg, tmp_path / "clean")
    noisy = experiments.build_problem(
        cfg, noise=uniform_noise(cfg.samples.size, 2e-3, cfg.seed + 1))
    failing_refiner(monkeypatch, solve(noisy, experiments.DEFAULT_NOISE_ITERS).iterate,
                    cfg.sources[1])
    _, failed = experiments.run_noise(cfg, tmp_path / "failed")

    assert failed[0] == rows[0]
    assert rows[1][5] is not None and rows[1][-1] == ""
    w_c, w_sel, dual_sel, ratio_sel, noise_rate, _, w_full, dual_full, ratio_full, _, _ = rows[1]
    assert failed[1] == (w_c, w_sel, dual_sel, ratio_sel, noise_rate, None, w_full, dual_full,
                         ratio_full, None, "refine_failed")


@pytest.fixture
def refinement_calls(monkeypatch):
    """The runs of each ``newton_on_slope`` call that refines peaks: the
    calls with the refinement step budget, ``REFINE_STEPS`` (the supremum's
    is ``GRID_NEWTON_ITERS``)."""
    calls = []
    newton = certificate.newton_on_slope

    def counting_newton(kernel, samples, weights, t, lo, hi, floor, max_iter, *start):
        if max_iter == certificate.REFINE_STEPS:
            calls.append(len(t))
        return newton(kernel, samples, weights, t, lo, hi, floor, max_iter, *start)

    monkeypatch.setattr(certificate, "newton_on_slope", counting_newton)
    return calls


class TestRefinementWork:
    """One ``newton_on_slope`` call refines the reference report's peaks, one
    the whole iteration window and one each sweep chunk, where one call per
    refinement made 237 per window."""

    @pytest.mark.parametrize("driver", [experiments.run_lambda_t, experiments.run_t_a])
    def test_window(self, driver, refinement_calls, tmp_path):
        # the report's 3 sources, then 79 window iterates x 3 sources
        driver(three_spike_config(), tmp_path)
        assert refinement_calls == [3, 237]

    def test_bounds(self, refinement_calls, tmp_path):
        experiments.run_bounds(three_spike_config(), tmp_path)
        assert refinement_calls == [3]

    def test_sweep_chunk(self, refinement_calls, monkeypatch, tmp_path):
        # the report's 3 sources, then 3 sweep points x 3 sources
        monkeypatch.setattr(experiments, "noise_grid", lambda: np.array([2e-6, 2e-4, 2e-3]))
        experiments.run_noise(three_spike_config(iterations=100), tmp_path, jobs=1)
        assert refinement_calls == [3, 9]
