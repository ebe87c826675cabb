"""Lockstep batches: a problem solved in a batch, a Newton run taken with
others and an LP pivoted in rounds must give the bits they give alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import three_spike_config
from dualspike import certificate, solver
from dualspike.certificate import (GRID_NEWTON_ITERS, Certificate, CertificateGrid,
                                   newton_on_slope, refine_location, slope_floor)
from dualspike.experiments import build_problem
from dualspike.model import uniform_noise
from dualspike.solver import solve, solve_batch
from helpers import newton_per_run, supremum_per_point


def noisy_problem(w_c, seed):
    cfg = three_spike_config()
    return build_problem(cfg, noise=uniform_noise(cfg.samples.size, w_c, seed))


def assert_same_solve(batched, alone):
    np.testing.assert_array_equal(batched.iterate, alone.iterate)
    assert batched.upper_history == alone.upper_history
    assert batched.lower_history == alone.lower_history
    assert batched.level_history == alone.level_history
    assert batched.gap_history == alone.gap_history
    assert [cut.value for cut in batched.cuts] == [cut.value for cut in alone.cuts]
    np.testing.assert_array_equal(np.array(batched.iterate_history),
                                  np.array(alone.iterate_history))


class TestSolveBatch:
    def test_batch_of_three_matches_each_alone(self):
        # the clean problem stops at its fixed point after 98 iterations,
        # while the two noisy ones run all 120 beside it
        problems = [build_problem(three_spike_config()), noisy_problem(2e-3, 0),
                    noisy_problem(0.06, 29)]
        states = solve_batch(problems, 120)
        assert [state.n_iterations for state in states] == [98, 120, 120]
        for problem, state in zip(problems, states):
            assert_same_solve(state, solve(problem, 120))

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(1e-6, 0.1), st.integers(0, 1000)),
                    min_size=2, max_size=3),
           st.randoms(use_true_random=False))
    def test_any_noise_seed_and_order(self, draws, rng):
        problems = [build_problem(three_spike_config())]
        problems += [noisy_problem(w_c, seed) for w_c, seed in draws]
        rng.shuffle(problems)
        for problem, state in zip(problems, solve_batch(problems, 40)):
            assert_same_solve(state, solve(problem, 40))

    def test_lp_pivots_in_rounds(self, monkeypatch):
        # the batch's pivots share stacked basis solves: fewer solve calls
        # than systems solved
        calls, systems = [], []
        basis_solve = solver._basis_solve

        def counting(size, matrix, rhs):
            calls.append(1)
            systems.append(1 if matrix.ndim == 2 else matrix.shape[0])
            return basis_solve(size, matrix, rhs)

        monkeypatch.setattr(solver, "_basis_solve", counting)
        solve_batch([noisy_problem(w_c, seed) for w_c, seed in
                     ((2e-3, 0), (0.006, 19), (4e-6, 2), (0.06, 29))], 60)
        assert len(calls) < sum(systems)

    def test_cuts_are_the_solves_cuts(self, monkeypatch):
        # the cuts a state evaluates again are the rows the solve added, bit
        # for bit, and no returned array lives in the model's row block; the
        # clean problem stops after 98 iterations, the noisy ones run all 150
        added, blocks = [], {}
        add = solver.CutModel.add

        def recording(model, anchors, values, slopes):
            added.append((anchors.copy(), values.copy(), slopes.copy()))
            add(model, anchors, values, slopes)
            blocks[id(model._rows)] = model._rows

        monkeypatch.setattr(solver.CutModel, "add", recording)
        problems = [build_problem(three_spike_config()), noisy_problem(2e-3, 0),
                    noisy_problem(0.06, 29)]
        states = solve_batch(problems, 150)
        assert [state.n_iterations for state in states] == [98, 150, 150]
        for i, state in enumerate(states):
            # a call's rows are the problems still running, in batch order
            rows = [[j for j, other in enumerate(states) if other.n_iterations > k].index(i)
                    for k in range(state.n_iterations)]
            cuts = state.cuts
            assert len(cuts) == state.n_iterations
            for part, field in enumerate(("anchor", "value", "slope")):
                expected = np.array([added[k][part][row] for k, row in enumerate(rows)])
                found = np.array([getattr(cut, field) for cut in cuts])
                assert found.tobytes() == expected.tobytes()
            arrays = [state.iterate, *state.iterate_history]
            arrays += [a for cut in cuts for a in (cut.anchor, cut.slope)]
            assert not any(np.shares_memory(a, block) for a in arrays for block in blocks.values())

    def test_mixed_problems_are_rejected(self):
        clean = build_problem(three_spike_config())
        other = build_problem(three_spike_config(pi=50.0))
        with pytest.raises(ValueError, match="penalty"):
            solve_batch([clean, other], 5)


def end_cell_weights(first):
    """Weights on two neighbouring samples of the three-spike grid whose
    certificate peaks halfway through the first scan cell (or the last):
    the scan sees no local maximum there, only the end-cell slopes do."""
    cfg = three_spike_config()
    grid, kernel = cfg.sample_grid(), cfg.kernel()
    h = 1.0 / (certificate.DEFAULT_GRID_POINTS - 1)
    t_star, near, far = (0.5 * h, 0, 1) if first else (1.0 - 0.5 * h, -1, -2)
    samples = grid.samples
    # q'(t*) = 0 for q = phi(t - s_near) + b phi(t - s_far)
    _, d_near, _ = kernel.value_and_derivatives(t_star - samples[near])
    _, d_far, _ = kernel.value_and_derivatives(t_star - samples[far])
    weights = np.zeros(samples.size)
    weights[near], weights[far] = 1.0, -d_near / d_far
    return CertificateGrid(grid, kernel), weights


class TestEndCellRuns:
    @pytest.mark.parametrize("first", [True, False])
    def test_supremum_matches_per_point(self, first):
        cert_grid, weights = end_cell_weights(first)
        h = cert_grid.scan[1]
        # the end-cell bump holds the supremum, and a second row rides along
        stack = np.array([weights, 0.5 * weights[::-1]])
        ts, values = cert_grid.supremum(stack)
        assert (0.0 < ts[0] < h) if first else (1.0 - h < ts[0] < 1.0)
        for t, v, w in zip(ts, values, stack):
            assert (t, v) == supremum_per_point(cert_grid, w)

    @pytest.mark.parametrize("first", [True, False])
    def test_newton_matches_per_run(self, first):
        cert_grid, weights = end_cell_weights(first)
        scan, samples, kernel = cert_grid.scan, cert_grid.grid.samples, cert_grid.kernel
        lo, hi = (scan[0], scan[1]) if first else (scan[-2], scan[-1])
        # the end-cell run beside runs from every scan peak of another certificate
        other = np.array([0.8, -0.3, 1.1, 0.4] * 5 + [0.2])
        peaks = cert_grid.local_max_indices(cert_grid.values(other))
        stack = np.array([weights] + [other] * peaks.size)
        t0 = np.concatenate(([0.5 * (lo + hi)], scan[peaks]))
        lows = np.concatenate(([lo], scan[peaks - 1]))
        highs = np.concatenate(([hi], scan[peaks + 1]))
        floors = np.array([slope_floor(kernel, w) for w in stack])
        t, derivs, converged = newton_on_slope(kernel, samples, stack, t0, lows, highs,
                                               floors, GRID_NEWTON_ITERS)
        for r, w in enumerate(stack):
            alone = newton_per_run(kernel, samples, w, float(t0[r]), float(lows[r]),
                                   float(highs[r]), float(floors[r]), GRID_NEWTON_ITERS)
            assert (t[r], tuple(d[r] for d in derivs), converged[r]) == alone


def per_run_newton(kernel, samples, weights, t, lo, hi, floor, max_iter, start=None):
    """``newton_on_slope`` taken one run at a time by ``newton_per_run``."""
    runs = [newton_per_run(kernel, samples, w, float(t_r), float(lo_r), float(hi_r),
                           float(floor_r), max_iter,
                           None if start is None else tuple(float(d[r]) for d in start))
            for r, (w, t_r, lo_r, hi_r, floor_r) in enumerate(zip(weights, t, lo, hi, floor))]
    return (np.array([run[0] for run in runs]),
            tuple(np.array([run[1][k] for run in runs]) for k in range(3)),
            np.array([run[2] for run in runs]))


@pytest.mark.parametrize("run", ["bench3_run", "bench5_run"])
def test_refine_location_matches_per_run(run, request, monkeypatch):
    cfg, problem, state, _ = request.getfixturevalue(run)
    cert = Certificate(state.iterate, problem.measurements.grid, problem.kernel)
    batched = [refine_location(cert, t) for t in cfg.source_model().locations]
    monkeypatch.setattr(certificate, "newton_on_slope", per_run_newton)
    assert batched == [refine_location(cert, t) for t in cfg.source_model().locations]
