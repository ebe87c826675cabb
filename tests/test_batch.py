"""Lockstep batches: a problem solved in a batch, a Newton run taken with
others and an LP pivoted in rounds must give the bits they give alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import three_spike_config
from dualspike import certificate, solver
from dualspike.certificate import (GRID_NEWTON_ITERS, REFINE_SLOPE_TOL, Certificate,
                                   CertificateGrid, _derivatives, newton_on_slope,
                                   refine_location, refine_peaks, slope_floor)
from dualspike.errors import NoConvergenceError
from dualspike.experiments import WINDOW_END, WINDOW_START, build_problem
from dualspike.kernel import Kernel
from dualspike.model import SampleGrid, uniform_noise
from dualspike.solver import solve, solve_batch
from helpers import (certificate_derivative, newton_per_run, refine_location_per_run,
                     supremum_per_point)


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
        t, derivs, converged = newton_on_slope(kernel, samples, stack, t0, lows, highs, floors,
                                               GRID_NEWTON_ITERS,
                                               _derivatives(kernel, samples, stack, t0))
        for r, w in enumerate(stack):
            alone = newton_per_run(kernel, samples, w, float(t0[r]), float(lows[r]),
                                   float(highs[r]), float(floors[r]), GRID_NEWTON_ITERS)
            assert (t[r], tuple(d[r] for d in derivs), converged[r]) == alone


def per_run_newton(kernel, samples, weights, t, lo, hi, floor, max_iter, start):
    """``newton_on_slope`` taken one run at a time by ``newton_per_run``."""
    runs = [newton_per_run(kernel, samples, w, float(t_r), float(lo_r), float(hi_r),
                           float(floor_r), max_iter, tuple(float(d[r]) for d in start))
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


def refinement_outcome(cert, t0, message):
    """Which exit of ``refine_location_per_run`` a run from t0 takes."""
    if message is not None:
        return message.split(" at ")[0].split(" near ")[0]
    if abs(certificate_derivative(cert, t0, 1)) < REFINE_SLOPE_TOL:
        return "stationary and concave"
    sigma = cert.kernel.sigma
    bracketed = (certificate_derivative(cert, max(0.0, t0 - sigma), 1) > 0.0
                 > certificate_derivative(cert, min(1.0, t0 + sigma), 1))
    return "bracketed" if bracketed else "bracket shrunk"


def assert_refinements_match_per_run(kernel, grid, weights, locations, order):
    """Every run of one ``refine_peaks`` call on ``weights`` x ``locations``,
    with both taken in ``order`` (certificate, location index arrays),
    equals ``refine_location_per_run`` bit for bit in t, q'' and the failure
    message.  Returns the outcomes reached."""
    rows, cols = order
    t, curv, failures = refine_peaks(kernel, grid.samples, weights[rows], locations[cols])
    outcomes = set()
    for i, c in enumerate(rows):
        cert = Certificate(weights[c], grid, kernel)
        for j, l in enumerate(cols):
            t0 = float(locations[l])
            try:
                expected = (*refine_location_per_run(cert, t0), None)
            except NoConvergenceError as exc:
                expected = (None, None, str(exc))
            message = failures.get((i, j))
            if message is None:
                assert (t[i, j], curv[i, j], message) == expected
            else:
                assert np.isnan(t[i, j]) and np.isnan(curv[i, j])
                assert (None, None, message) == expected
            outcomes.add(refinement_outcome(cert, t0, message))
    return outcomes


@pytest.mark.parametrize("run", ["bench3_run", "bench5_run"])
def test_refine_peaks_matches_per_run_on_window(run, request):
    # the window certificates of a ratio experiment, refined from each
    # source, in batch order and reversed
    cfg, problem, state, _ = request.getfixturevalue(run)
    weights = np.array(state.iterate_history[WINDOW_START - 1:WINDOW_END])
    locations = cfg.source_model().locations
    grid = problem.measurements.grid
    for order in ((np.arange(len(weights)), np.arange(locations.size)),
                  (np.arange(len(weights))[::-1], np.arange(locations.size)[::-1])):
        assert assert_refinements_match_per_run(problem.kernel, grid, weights, locations,
                                                order) <= {"bracketed", "bracket shrunk"}


def test_refine_peaks_matches_per_run_across_a_valley():
    # bumps of weight 1 at 0.4 and 2 at 0.62, 0.1 wide, with the valley
    # between them at 0.48274: from just left of it the high end halves its
    # way back across the valley over about ten rounds; from just right of
    # it, it never finds q' < 0
    kernel, grid = Kernel(0.1), SampleGrid([0.4, 0.62])
    weights, starts = np.array([[1.0, 2.0]]), np.array([0.4826, 0.4829])
    outcomes = assert_refinements_match_per_run(kernel, grid, weights, starts,
                                                (np.arange(1), np.arange(2)))
    assert outcomes == {"bracket shrunk", "no local maximum bracketed"}
    t, _, _ = refine_peaks(kernel, grid.samples, weights, starts)
    assert 0.4 < t[0, 0] < 0.41


@st.composite
def refinement_batches(draw):
    """A few certificates on equispaced samples, many weights 0 or +-1, a
    kernel 0.5 to 0.7 spacings wide (so a bracket often reaches into the
    valley before a neighbouring bump), and starts at samples or anywhere in
    [0, 1], with a batch order for each."""
    samples = np.linspace(0.0, 1.0, draw(st.integers(2, 6)))
    kernel = Kernel(samples[1] * draw(st.floats(0.5, 0.7)))
    weight = st.one_of(st.just(0.0), st.just(1.0), st.just(-1.0), st.floats(-10.0, 10.0))
    weights = draw(st.lists(st.lists(weight, min_size=samples.size, max_size=samples.size),
                            min_size=1, max_size=3))
    starts = draw(st.lists(st.one_of(st.sampled_from(samples.tolist()), st.floats(0.0, 1.0)),
                           min_size=1, max_size=4))
    order = (np.array(draw(st.permutations(range(len(weights))))),
             np.array(draw(st.permutations(range(len(starts))))))
    return kernel, SampleGrid(samples), np.array(weights), np.array(starts), order


def test_refine_peaks_matches_per_run_on_draws():
    # the draws reach every exit of a run but the step budget
    outcomes = set()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(refinement_batches())
    def check(batch):
        outcomes.update(assert_refinements_match_per_run(*batch))

    check()
    assert outcomes >= {"stationary and concave", "stationary but not concave",
                        "no local maximum bracketed", "bracket shrunk"}
