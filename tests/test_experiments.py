"""The experiment drivers read their constants from one reference report:
the same number must appear in every artifact that carries it."""

import csv
import dataclasses

import numpy as np
import pytest

from conftest import three_spike_config
from dualspike import certificate, experiments


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
