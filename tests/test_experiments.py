"""The experiment drivers read their constants from one reference report:
the same number must appear in every artifact that carries it."""

import csv
import dataclasses
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import three_spike_config
from dualspike import bounds, certificate, experiments
from dualspike.cli import main
from dualspike.errors import DualSpikeError
from dualspike.model import uniform_noise
from dualspike.solver import solve

THREE_SPIKES = Path(__file__).resolve().parents[1] / "configs" / "three_spikes.cfg"


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
        # the sweep's 100-iteration reference writes the record, which ends
        # at the solve's 98-iterate fixed point, so the 500-iteration
        # references of the ratio experiments and the report read it
        (_, noise_path), _ = experiments.run_noise(cfg, out)
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


def test_noise_location_error(artifacts):
    # the distance from each point's refined peaks to the true sources: far
    # under the source spacing, and larger at the larger noise
    noise, _, _, _ = artifacts
    low, high = (float(row["loc_err"]) for row in noise)
    assert 0.0 < low < 1e-4 and low < high < 1e-3


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

    def counting_newton(kernel, samples, weights, t, lo, hi, floor, max_iter):
        if max_iter == certificate.REFINE_STEPS:
            calls.append(len(t))
        return newton(kernel, samples, weights, t, lo, hi, floor, max_iter)

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


@pytest.fixture
def solve_calls(monkeypatch):
    """The reference solves run from here on, counted through a wrapper of
    the ``solve`` the drivers call."""
    calls = []

    def counting_solve(problem, max_iters):
        calls.append(max_iters)
        return solve(problem, max_iters)

    monkeypatch.setattr(experiments, "solve", counting_solve)
    return calls


def files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestReferenceRecord:
    """The reference stage writes its solve's record into the output
    directory, and the next command there reads it instead of solving."""

    ITERS = 300

    @pytest.fixture
    def cfg(self, monkeypatch):
        monkeypatch.setattr(experiments, "noise_grid", lambda: np.array([2e-6, 2e-3]))
        return three_spike_config(iterations=self.ITERS)

    def test_shared_directory_writes_the_same_bytes(self, cfg, solve_calls, tmp_path):
        drivers = (experiments.run_lambda_t, experiments.run_t_a, experiments.run_bounds,
                   experiments.run_noise)
        alone = {}
        for driver in drivers:
            driver(cfg, tmp_path / driver.__name__)
            alone.update(files(tmp_path / driver.__name__))
        assert solve_calls == [self.ITERS] * len(drivers)
        solve_calls.clear()
        printed = []
        for driver in drivers:
            paths, _ = driver(cfg, tmp_path / "shared")
            printed.append([os.path.basename(path) for path in paths])
        # the first command solves and lists the record; the others read it
        assert solve_calls == [self.ITERS]
        assert printed[0][0] == experiments.REFERENCE_FILE
        assert all(experiments.REFERENCE_FILE not in names for names in printed[1:])
        assert files(tmp_path / "shared") == alone

    def test_loaded_state_is_the_solved_one(self, cfg, solve_calls, tmp_path):
        _, problem, solved, _ = experiments.reference_run(cfg, self.ITERS, tmp_path)
        _, _, loaded, _ = experiments.reference_run(cfg, self.ITERS, tmp_path)
        assert solve_calls == [self.ITERS]
        state = solve(problem, self.ITERS)
        assert solved.shape == (state.n_iterations, problem.measurements.y.size)
        assert loaded.tobytes() == solved.tobytes() == np.array(state.iterate_history).tobytes()

    @pytest.mark.parametrize("change", [
        {"tau": 1e4}, {"pi": 50.0}, {"sigma": 0.08}, {"samples": np.linspace(0.0, 1.0, 22)}])
    def test_another_problem_misses(self, cfg, solve_calls, tmp_path, change):
        experiments.reference_run(cfg, self.ITERS, tmp_path / "first")
        other = dataclasses.replace(cfg, **change)
        experiments.reference_run(other, other.iterations, tmp_path / "alone")
        paths, *_ = experiments.reference_run(other, other.iterations, tmp_path / "first")
        assert len(solve_calls) == 3
        assert [os.path.basename(path) for path in paths] == [experiments.REFERENCE_FILE]
        assert files(tmp_path / "first") == files(tmp_path / "alone")

    SEQUENCE = (("exp-lambda-t",), ("bounds",), ("exp-noise", "--iters", "100"), ("exp-t-a",),
                ("exp-noise", "--iters", "100"), ("bounds",))

    @pytest.mark.parametrize("first", [0, 2], ids=["exp-lambda-t-first", "exp-noise-first"])
    def test_one_solve_per_directory(self, cfg, solve_calls, tmp_path, first):
        # the commands into one --out solve the reference once, whatever
        # their caps and order, and each writes what it writes alone (the
        # cfg fixture cuts the sweep to two points)
        sequence = [self.SEQUENCE[first], *self.SEQUENCE[:first], *self.SEQUENCE[first + 1:]]

        def run(args, out):
            assert main([args[0], "--config", str(THREE_SPIKES), "--out", str(out), "--seed",
                         "0", *args[1:]]) == 0

        for args in dict.fromkeys(sequence):
            run(args, tmp_path / args[0])
        solve_calls.clear()
        for args in sequence:
            run(args, tmp_path / "shared")
            alone, shared = files(tmp_path / args[0]), files(tmp_path / "shared")
            assert {name: shared[name] for name in alone} == alone
        assert len(solve_calls) == 1

    @pytest.mark.parametrize("iterations", [1, 40, 97, 98, 99, ITERS + 1, 500])
    def test_another_cap_reads_the_record(self, cfg, solve_calls, tmp_path, iterations):
        # the record ends at three-spike's 98-iterate fixed point: a smaller
        # cap reads its first rows, a larger one all of them, as a solve would
        _, problem, _, _ = experiments.reference_run(cfg, self.ITERS, tmp_path)
        written = files(tmp_path)
        paths, _, loaded, _ = experiments.reference_run(cfg, iterations, tmp_path)
        assert solve_calls == [self.ITERS] and paths == []
        assert loaded.tobytes() == np.array(solve(problem, iterations).iterate_history).tobytes()
        assert files(tmp_path) == written

    @pytest.mark.parametrize("cap", [1, 40])
    def test_a_capped_record_serves_a_prefix(self, cfg, solve_calls, tmp_path, cap):
        # a record cut short of the fixed point by its cap serves caps up to
        # that one and stays; a larger cap solves and replaces it
        out = tmp_path / "capped"
        experiments.reference_run(cfg, cap, out)
        written = files(out)
        for iterations in sorted({1, cap}):
            paths, problem, loaded, _ = experiments.reference_run(cfg, iterations, out)
            assert paths == [] and loaded.tobytes() == np.array(
                solve(problem, iterations).iterate_history).tobytes()
        assert solve_calls == [cap] and files(out) == written
        paths, *_ = experiments.reference_run(cfg, 500, out)
        assert solve_calls == [cap, 500]
        assert [os.path.basename(path) for path in paths] == [experiments.REFERENCE_FILE]
        experiments.reference_run(cfg, 500, tmp_path / "alone")
        assert files(out) == files(tmp_path / "alone")

    @pytest.mark.parametrize("edit", [
        # a changed package source changes the key
        lambda lines: [lines[0], "# key=0123456789abcdef\n", *lines[2:]],
        # a truncated last row: its last field still reads as a float
        lambda lines: [*lines[:-1], lines[-1][:-4]],
        # a dropped last row: the history does not end where a solve stops
        lambda lines: lines[:-1],
        lambda lines: [*lines[:10], lines[10].rpartition(",")[0] + "\n", *lines[11:]],
        lambda lines: [*lines[:10], lines[10].replace(",", ",x", 1), *lines[11:]],
        lambda lines: [*lines[:10], *lines[11:]],
        lambda lines: lines[:3],
        lambda lines: [],
    ], ids=["key", "truncated-row", "dropped-row", "short-row", "non-float", "missing-row",
            "no-rows", "empty"])
    def test_a_damaged_record_misses(self, cfg, solve_calls, tmp_path, edit):
        experiments.reference_run(cfg, self.ITERS, tmp_path)
        record = tmp_path / experiments.REFERENCE_FILE
        written = record.read_bytes()
        record.write_text("".join(edit(record.read_text().splitlines(keepends=True))))
        paths, *_ = experiments.reference_run(cfg, self.ITERS, tmp_path)
        assert solve_calls == [self.ITERS] * 2
        assert paths == [str(record)] and record.read_bytes() == written
        assert [path.name for path in tmp_path.iterdir()] == [experiments.REFERENCE_FILE]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(lambda m: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=m, max_size=m),
        min_size=1, max_size=4)))
    @example([[5e-324, -0.0, 1.7976931348623157e308, -1.7976931348623157e308]])
    def test_a_record_reads_back_or_misses(self, rows):
        # any iterates read back bit for bit; any line deleted, or the file
        # cut anywhere short of its end, is a miss
        iterates, key = np.array(rows), "0123456789abcdef"
        with tempfile.TemporaryDirectory() as out:
            path = Path(experiments._save_reference(three_spike_config(), out, iterates, key))
            loaded = experiments._load_reference(path, key, iterates.shape[1])
            assert loaded.shape == iterates.shape and loaded.tobytes() == iterates.tobytes()
            written = path.read_bytes()
            lines = written.splitlines(keepends=True)
            for damaged in [*(b"".join(lines[:i] + lines[i + 1:]) for i in range(len(lines))),
                            *(written[:cut] for cut in range(len(written)))]:
                path.write_bytes(damaged)
                assert experiments._load_reference(path, key, iterates.shape[1]) is None

    def test_zero_iterations_write_no_record(self, cfg, tmp_path):
        # a cap of 0 fails alike with no record and with one, which it leaves
        cfg = dataclasses.replace(cfg, iterations=0)
        with pytest.raises(DualSpikeError, match="key 'iterations'"):
            experiments.reference_run(cfg, 0, tmp_path)
        assert not any(tmp_path.iterdir())
        experiments.reference_run(cfg, self.ITERS, tmp_path)
        written = files(tmp_path)
        with pytest.raises(DualSpikeError, match="key 'iterations': the reference solve ran no "
                           "iteration"):
            experiments.reference_run(cfg, 0, tmp_path)
        assert files(tmp_path) == written
