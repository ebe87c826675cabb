"""Lockstep batches: a problem solved in a batch, a Newton run taken with
others and an LP pivoted in rounds must give the bits they give alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import three_spike_config
from dualspike import certificate, experiments, numerics, solver
from dualspike.certificate import (GRID_NEWTON_ITERS, REFINE_SLOPE_TOL, Certificate,
                                   CertificateGrid, newton_on_slope, refine_peaks,
                                   slope_floor)
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
        # while the two noisy ones run all the others beside it; neither
        # cap is one that doubling from CUT_BLOCK lands on, so the blocks
        # of cuts and iterates end at the cap
        problems = [build_problem(three_spike_config()), noisy_problem(2e-3, 0),
                    noisy_problem(0.06, 29)]
        for iters in (100, 120):
            states = solve_batch(problems, iters)
            assert [state.n_iterations for state in states] == [98, iters, iters]
            for problem, state in zip(problems, states):
                assert_same_solve(state, solve(problem, iters))

    def test_batch_without_history_ends_alike(self):
        # the same final iterate and bounds as the recorded batch and as
        # each problem alone, and no row kept: no iterate, bound or cut
        problems = [build_problem(three_spike_config()), noisy_problem(2e-3, 0),
                    noisy_problem(0.06, 29)]
        bare = solve_batch(problems, 100, history=False)
        recorded = solve_batch(problems, 100)
        for problem, state, full in zip(problems, bare, recorded):
            alone = solve(problem, 100)
            assert state.iterate.tobytes() == full.iterate.tobytes() == alone.iterate.tobytes()
            assert (state.upper_bound, state.lower_bound) == (
                full.upper_bound, full.lower_bound) == (alone.upper_bound, alone.lower_bound)
            assert state.n_iterations == 0 and state._iterates.size == 0
            assert state.upper_history == state.lower_history == state.iterate_history == []
            assert state.cuts == []

    def test_noise_chunk_solves_without_history(self, monkeypatch):
        # the sweep reads only the final iterates, so it keeps no history
        calls = []

        def spy(problems, max_iters, **kwargs):
            calls.append(kwargs)
            return solve_batch(problems, max_iters, **kwargs)

        monkeypatch.setattr(experiments, "solve_batch", spy)
        chunk = experiments._noise_chunk((three_spike_config(), 5, [(0, 2e-3), (1, 0.06)]))
        assert calls == [{"history": False}] and len(chunk) == 2

    def test_iterates_are_rows_of_one_block(self):
        # each problem's history is a list of rows of one array of at most
        # max_iters rows, and the final iterate is its newest row
        problems = [build_problem(three_spike_config()), noisy_problem(2e-3, 0)]
        for state in solve_batch(problems, 100):
            rows = state.iterate_history
            assert len(rows) == state.n_iterations
            block = rows[0].base
            assert block is not None and block.shape[0] <= 100
            assert all(row.base is block for row in rows)
            assert state.iterate.base is block
            np.testing.assert_array_equal(state.iterate, rows[-1])

    def test_cut_block_never_outgrows_the_iteration_count(self, monkeypatch):
        # each point's cut block has room for 64 cuts at first; a
        # 100-iteration batch grows it to 100 cuts, not to the 128 that
        # doubling gives
        rooms = []
        add = solver.CutModel.add

        def recording(model, anchors, values, slopes):
            add(model, anchors, values, slopes)
            rooms.append(model._h.shape[1])
            assert model._cuts.shape[:2] == model._h.shape == model._repeat.shape

        monkeypatch.setattr(solver.CutModel, "add", recording)
        states = solve_batch([noisy_problem(2e-3, 0), noisy_problem(0.06, 29)], 100)
        assert [state.n_iterations for state in states] == [100, 100]
        assert sorted(set(rooms)) == [solver.CUT_BLOCK, 100]

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

    def test_model_holds_no_box_row_per_problem(self, monkeypatch):
        # the table holds the 2m box rows once and then only cut rows, room
        # for each problem; every level set the solve projects onto is the
        # dense [I; -I; cut rows] lam <= [tau...; h + level] rebuilt from
        # the cuts the solve added
        added, sets = [], []
        add, level_set = solver.CutModel.add, solver.CutModel.level_set

        def recording(model, anchors, values, slopes):
            added.append((anchors.copy(), values.copy(), slopes.copy()))
            add(model, anchors, values, slopes)
            points, m = slopes.shape
            room = model._h.shape[1]
            assert model.size <= room <= 150
            assert np.shares_memory(model._cuts, model._rows)
            assert model._rows.nbytes - points * room * (m + 1) * 8 == 2 * m * (m + 1) * 8

        def recording_set(model, point, level):
            a_mat, b_vec = level_set(model, point, level)
            sets.append((model.size - 1, point, level, a_mat.copy(), b_vec.copy()))
            return a_mat, b_vec

        monkeypatch.setattr(solver.CutModel, "add", recording)
        monkeypatch.setattr(solver.CutModel, "level_set", recording_set)
        problems = [build_problem(three_spike_config()), noisy_problem(2e-3, 0),
                    noisy_problem(0.06, 29)]
        states = solve_batch(problems, 150)
        assert [state.n_iterations for state in states] == [98, 150, 150]
        assert len(sets) == 98 + 150 + 150
        m, tau = states[0].iterate.size, problems[0].box_radius
        hs = [np.matmul(slopes[:, None, :], anchors[:, :, None])[:, 0, 0] - values
              for anchors, values, slopes in added]

        def running(k):
            return [j for j, other in enumerate(states) if other.n_iterations > k]

        for k, point, level, a_mat, b_vec in sets:
            i = running(k)[point]
            rows = [running(j).index(i) for j in range(k + 1)]
            slopes = np.array([added[j][2][row] for j, row in enumerate(rows)])
            h = np.array([hs[j][row] for j, row in enumerate(rows)])
            assert a_mat.tobytes() == np.concatenate((np.eye(m), -np.eye(m), slopes)).tobytes()
            assert b_vec.tobytes() == np.concatenate((np.full(2 * m, tau), h + level)).tobytes()

    def test_projection_gets_box_rows_first(self, monkeypatch):
        # the level set reaches the projection through the numerics module
        # attribute: the 2m box rows, then one row per cut
        calls = []
        project = numerics.project_polyhedron

        def spy(x, a_mat, b_vec, warm):
            calls.append((a_mat.copy(), b_vec.copy()))
            return project(x, a_mat, b_vec, warm=warm)

        monkeypatch.setattr(numerics, "project_polyhedron", spy)
        problem = noisy_problem(2e-3, 0)
        state = solve(problem, 20)
        m = state.iterate.size
        assert len(calls) == state.n_iterations == 20
        box = np.concatenate((np.eye(m), -np.eye(m)))
        for k, (a_mat, b_vec) in enumerate(calls, start=1):
            assert a_mat.shape == (2 * m + k, m) and b_vec.shape == (2 * m + k,)
            assert a_mat[:2 * m].tobytes() == box.tobytes()
            assert (b_vec[:2 * m] == problem.box_radius).all()

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
        # the end-cell bump holds the supremum, and rows ride along: one
        # with no scan local maximum and one with many, whose Newton runs
        # share the batch's one call
        other = np.array([0.8, -0.3, 1.1, 0.4] * 5 + [0.2])
        stack = np.array([weights, np.zeros_like(weights), 0.5 * weights[::-1], other])
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
                                               GRID_NEWTON_ITERS)
        for r, w in enumerate(stack):
            alone = newton_per_run(kernel, samples, w, float(t0[r]), float(lows[r]),
                                   float(highs[r]), float(floors[r]), GRID_NEWTON_ITERS)
            assert (t[r], tuple(d[r] for d in derivs), converged[r]) == alone


def per_run_newton(kernel, samples, weights, t, lo, hi, floor, max_iter):
    """``newton_on_slope`` taken one run at a time by ``newton_per_run``."""
    runs = [newton_per_run(kernel, samples, w, float(t_r), float(lo_r), float(hi_r),
                           float(floor_r), max_iter)
            for w, t_r, lo_r, hi_r, floor_r in zip(weights, t, lo, hi, floor)]
    return (np.array([run[0] for run in runs]),
            tuple(np.array([run[1][k] for run in runs]) for k in range(3)),
            np.array([run[2] for run in runs]))


@pytest.mark.parametrize("run", ["bench3_run", "bench5_run"])
def test_refine_location_matches_per_run(run, request, monkeypatch):
    # the reference certificate refined from each source location
    cfg, problem, state, _ = request.getfixturevalue(run)
    args = (problem.kernel, problem.measurements.grid.samples, state.iterate[None],
            cfg.source_model().locations)
    t, curv, failures = refine_peaks(*args)
    monkeypatch.setattr(certificate, "newton_on_slope", per_run_newton)
    alone_t, alone_curv, alone_failures = refine_peaks(*args)
    assert failures == alone_failures == {}
    assert (t.tolist(), curv.tolist()) == (alone_t.tolist(), alone_curv.tolist())


def refinement_outcome(cert, t0, message):
    """Which exit of ``refine_location_per_run`` a run from t0 takes."""
    if message is not None:
        return "not concave" if message.endswith("not concave") else message.split(" near ")[0]
    # the far end of the side q rises into, before any halving
    if certificate_derivative(cert, t0, 1) > 0.0:
        bracketed = certificate_derivative(cert, min(1.0, t0 + cert.kernel.sigma), 1) < 0.0
    else:
        bracketed = certificate_derivative(cert, max(0.0, t0 - cert.kernel.sigma), 1) > 0.0
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
    # between them at 0.48274: from just left of it q rises to the left and
    # the low end brackets the first bump at once; from just right of it q
    # rises to the right and the high end never finds q' < 0; from 0.39 the
    # high end starts past the valley (q' = 1.59 at 0.49) and halves its way
    # back across it (q' = -4.00 at 0.44)
    kernel, grid = Kernel(0.1), SampleGrid([0.4, 0.62])
    weights, starts = np.array([[1.0, 2.0]]), np.array([0.4826, 0.4829, 0.39])
    outcomes = assert_refinements_match_per_run(kernel, grid, weights, starts,
                                                (np.arange(1), np.arange(3)))
    assert outcomes == {"bracketed", "bracket shrunk", "no local maximum bracketed"}
    t, _, _ = refine_peaks(kernel, grid.samples, weights, starts)
    assert 0.4 < t[0, 0] < 0.41 and 0.4 < t[0, 2] < 0.41


def test_refine_peaks_matches_per_run_at_a_valley():
    # equal bumps of weight 1e6 at 0.4 and 0.6, 0.1 wide: q'(0.5) = 0, and
    # q'(0.5 + 1e-15) = 1.46e-7 lies under the round-off floor 1.7e-6; both
    # brackets hold a peak, Newton stops at its start, and q'' = +1.47e8
    # there fails the run
    kernel, grid = Kernel(0.1), SampleGrid([0.4, 0.6])
    outcomes = assert_refinements_match_per_run(
        kernel, grid, np.array([[1e6, 1e6]]), np.array([0.5, 0.5 + 1e-15]),
        (np.arange(1), np.arange(2)))
    assert outcomes == {"not concave"}


def test_refine_peaks_matches_per_run_from_convex_starts():
    # starts where q'' > 0, each at the centre of its bracket: the convex
    # flank of one bump, and the valley between two
    for samples, weights, start in (([0.5], [1.0], 0.42), ([0.4, 0.6], [1.0, 1.0], 0.49989)):
        outcomes = assert_refinements_match_per_run(
            Kernel(0.1), SampleGrid(samples), np.array([weights]), np.array([start]),
            (np.arange(1), np.arange(1)))
        assert outcomes == {"bracketed"}


def test_window_peaks_are_maxima(bench3_run):
    # early in the three-spike window q dips at the source 0.25 (q'' > 0
    # there): every run still ends at a maximum, not at its start
    cfg, problem, state, _ = bench3_run
    weights = np.array(state.iterate_history[WINDOW_START - 1:WINDOW_END])
    locations = cfg.source_model().locations
    grid = problem.measurements.grid
    t, curv, failures = refine_peaks(problem.kernel, grid.samples, weights, locations)
    assert not failures and np.all(curv < 0.0)
    convex_starts = 0
    for w, peaks in zip(weights, t):
        cert = Certificate(w, grid, problem.kernel)
        floor = max(REFINE_SLOPE_TOL, slope_floor(problem.kernel, w))
        assert all(abs(certificate_derivative(cert, p, 1)) <= floor for p in peaks)
        convex_starts += certificate_derivative(cert, locations[0], 2) > 0.0
    assert convex_starts > 0


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
    # the draws reach every exit of a run but the step budget and the
    # concavity verdict (test_refine_peaks_matches_per_run_at_a_valley)
    outcomes = set()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(refinement_batches())
    def check(batch):
        outcomes.update(assert_refinements_match_per_run(*batch))

    check()
    assert outcomes >= {"bracketed", "bracket shrunk", "no local maximum bracketed"}
