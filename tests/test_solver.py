"""Penalty objective, subgradient oracle, model operations, and the bundle
method itself."""

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import five_spike_config, three_spike_config
from dualspike import certificate, numerics, solver
from dualspike.certificate import CertificateGrid
from dualspike.config import parse_config
from dualspike.errors import (DualSpikeError, InfeasibleError, LevelSetEmptyError,
                              NoConvergenceError)
from dualspike.experiments import build_problem
from dualspike.kernel import Kernel
from dualspike.model import SampleGrid, SourceModel, build_phi, synthesize, uniform_noise
from dualspike.solver import (Cut, CutModel, PenaltyProblem, _oracle, model_value,
                              penalty_objective, solve)
from helpers import add_cut, cut_arrays, cut_model, lp_argmin, model_minimum, subgradient


def small_problem(m=5, sigma=0.1, penalty=5.0, box=10.0):
    src = SourceModel([0.5], [1.0])
    grid = SampleGrid.equispaced(m)
    kernel = Kernel(sigma)
    return PenaltyProblem(synthesize(src, grid, kernel), kernel, penalty, box)


def failing_projection(point, a_mat, b_vec, warm=None):
    raise InfeasibleError("forced fallback")


@pytest.fixture
def projection_failures(monkeypatch):
    """The errors ``numerics.project_polyhedron`` raises, recorded as they
    pass through to ``CutModel.project``'s fallback."""
    raised = []
    project = numerics.project_polyhedron

    def recording(point, a_mat, b_vec, warm=None):
        try:
            return project(point, a_mat, b_vec, warm)
        except DualSpikeError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(numerics, "project_polyhedron", recording)
    return raised


def random_cuts(rng, n_cuts, m):
    return [Cut(rng.normal(size=m), float(rng.normal()), rng.normal(size=m))
            for _ in range(n_cuts)]


def project(cuts, level, point, box_radius):
    model = cut_model(cuts, box_radius)
    model.minima()
    return model.project(0, level, point)


def basis_bound(model, offsets, slopes):
    """sum_i mu_i offsets_i - box_radius |slopes^T mu|_1 from the cut
    multipliers mu of the model's current basis, which is the dual
    objective of any mu >= 0 summing to 1 and so a lower bound on the model
    minimum; ``offsets`` and ``slopes`` are those of the cuts the model
    holds.  Returns (bound, mu, scale), where scale is the same sum taken
    over the terms' absolute values: the size of its round-off."""
    n_box = 2 * slopes.shape[1]
    mu = np.zeros(model.size)
    (basis,), (mult,) = model._basis, model._mult
    on_cuts = basis >= n_box
    mu[basis[on_cuts] - n_box] = mult[on_cuts]
    bound = float(mu @ offsets - model.box_radius * np.abs(slopes.T @ mu).sum())
    scale = float(mu @ np.abs(offsets) + model.box_radius * (np.abs(slopes).T @ mu).sum())
    return bound, mu, scale


def certified_cold_minimum(offsets, slopes, box_radius):
    """Tight cold dual-simplex solve of the epigraph LP.

    Returns (value, lower, upper), or None when the solve fails: ``lower``
    is the dual bound of the solve's row multipliers and ``upper`` the
    model at its (clipped) argmin, so the model minimum lies in between
    whatever the solver's accuracy.
    """
    n_cuts, n = slopes.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=np.hstack([slopes, -np.ones((n_cuts, 1))]), b_ub=-offsets,
                  bounds=[(-box_radius, box_radius)] * n + [(None, None)],
                  method="highs-ds", options={"primal_feasibility_tolerance": 1e-10,
                                              "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        return None
    mu = np.maximum(-res.ineqlin.marginals, 0.0)
    mu /= mu.sum()
    lower = float(mu @ offsets - box_radius * np.abs(slopes.T @ mu).sum())
    upper = float(np.max(offsets + slopes @ np.clip(res.x[:n], -box_radius, box_radius)))
    return float(res.fun), lower, upper


class TestObjective:
    def test_zero_vector(self):
        assert penalty_objective(small_problem(), np.zeros(5)) == 0.0

    def test_single_sample_certificate(self):
        src = SourceModel([0.5], [1.0])
        grid = SampleGrid([0.5])
        kernel = Kernel(0.1)
        problem = PenaltyProblem(synthesize(src, grid, kernel), kernel, 7.0, 10.0)
        # sup of q is exactly 1, so only the linear term remains
        assert penalty_objective(problem, np.array([1.0])) == pytest.approx(-1.0, abs=1e-12)

    def test_against_brute_force_supremum(self):
        problem = small_problem()
        grid = problem.measurements.grid
        scan = np.linspace(0.0, 1.0, 1_000_001)
        table = problem.kernel.value(scan[:, None] - grid.samples[None, :])
        rng = np.random.default_rng(21)
        for _ in range(8):
            lam = rng.normal(size=5) * 2.0
            sup = float((table @ lam).max())
            expected = -float(problem.measurements.y @ lam) + 5.0 * max(sup - 1.0, 0.0)
            assert penalty_objective(problem, lam) == pytest.approx(expected, abs=1e-6)

    def test_convexity_midpoints(self):
        problem = small_problem()
        rng = np.random.default_rng(22)
        for _ in range(100):
            a, b = rng.normal(size=5) * 3, rng.normal(size=5) * 3
            mid = penalty_objective(problem, 0.5 * (a + b))
            avg = 0.5 * (penalty_objective(problem, a) + penalty_objective(problem, b))
            assert mid <= avg + 1e-9 * max(1.0, abs(avg))


class TestSubgradient:
    def test_inactive_branch(self):
        problem = small_problem()
        g, t_active = subgradient(problem, np.zeros(5))
        np.testing.assert_array_equal(g, -problem.measurements.y)
        assert t_active is None

    def test_active_branch(self):
        problem = small_problem()
        lam = np.full(5, 2.0)  # sup of q well above 1
        g, t_active = subgradient(problem, lam)
        assert t_active is not None
        expected = (-problem.measurements.y
                    + problem.penalty * build_phi(problem.measurements.grid,
                                                  problem.kernel, [t_active])[:, 0])
        np.testing.assert_allclose(g, expected, rtol=1e-12)

    def test_subgradient_inequality(self):
        problem = small_problem()
        rng = np.random.default_rng(23)
        for _ in range(10):
            lam = rng.normal(size=5) * 2.0
            value = penalty_objective(problem, lam)
            g, _ = subgradient(problem, lam)
            for _ in range(10):
                other = rng.normal(size=5) * 3.0
                lhs = penalty_objective(problem, other)
                rhs = value + g @ (other - lam)
                assert lhs >= rhs - 1e-8 * max(1.0, abs(lhs))


class TestModelMinimum:
    def test_single_cut_closed_form(self):
        m, tau = 4, 1.5
        rng = np.random.default_rng(24)
        slope = rng.normal(size=m)
        cut = Cut(np.zeros(m), 2.0, slope)
        nu, argmin = model_minimum([cut], tau)
        assert nu == pytest.approx(2.0 - tau * np.abs(slope).sum(), abs=1e-9)
        np.testing.assert_allclose(argmin, -tau * np.sign(slope), atol=1e-9)

    def test_first_cut_from_data_with_negative_entries(self):
        # the first cut is taken at lam = 0, where its slope is -y: where y
        # is negative (here past its first entry) the slope is positive, and
        # the closed-form first basis puts lam on the lower bound there
        tau = 2.0
        y = np.array([0.5, -0.75, 0.25, -1.5])
        model = CutModel(1, y.size, tau, 4)
        add_cut(model, Cut(np.zeros(y.size), 0.0, -y))
        assert model.minima()[0] == pytest.approx(-tau * np.abs(y).sum(), abs=1e-12)
        np.testing.assert_array_equal(lp_argmin(model), tau * np.sign(y))

    def test_duplicate_cuts(self):
        rng = np.random.default_rng(25)
        cut = Cut(rng.normal(size=3), 1.0, rng.normal(size=3))
        nu1, x1 = model_minimum([cut], 1.0)
        nu2, x2 = model_minimum([cut, cut], 1.0)
        assert nu1 == pytest.approx(nu2, abs=1e-12)
        np.testing.assert_allclose(x1, x2, atol=1e-9)
        # copies of one plane with offsets an ulp apart, where the vertex
        # reaches 1e6: the round-off of its product with a copy's row shows
        # over LP_ROW_TOL, so copies that entered the basis in turn would
        # cycle to the pivot cap
        rng = np.random.default_rng(1)
        cut = Cut(rng.normal(size=3), 1.0, rng.normal(size=3))
        twin = Cut(cut.anchor, float(np.nextafter(1.0, 2.0)), cut.slope)
        nu1, x1 = model_minimum([cut], 1e6)
        nu3, x3 = model_minimum([cut, twin, cut], 1e6)
        assert np.abs(x1).max() == 1e6
        assert nu1 == pytest.approx(nu3, abs=1e-9)
        np.testing.assert_array_equal(x1, x3)
        # a tighter copy of a basis row, added after it: it enters by a
        # pivot, and no row's h changes once written
        offsets = [-0.73226735, -0.54425898, -0.31630016, 0.41163054, 1.04251337]
        slopes = [0.84129989, 0.0, 1.84272194, 0.0, -3.97229656]
        model, minima, rhs = CutModel(1, 1, 1.0, len(offsets)), [], []
        for offset, slope in zip(offsets, slopes):
            add_cut(model, Cut(np.zeros(1), offset, np.array([slope])))
            rhs.append(model.level_set(0, 0.0)[1].copy())
            minima.append(model.minima()[0])
        assert minima[3:] == pytest.approx([0.41163054] * 2, abs=1e-12)
        assert all(np.array_equal(early, rhs[-1][:early.size]) for early in rhs)

    def test_against_box_grid(self):
        rng = np.random.default_rng(26)
        cuts = random_cuts(rng, 10, 3)
        nu, argmin = model_minimum(cuts, 1.0)
        axis = np.linspace(-1.0, 1.0, 101)
        xs = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        vals = np.max(np.stack([c.value + (xs - c.anchor) @ c.slope for c in cuts]), axis=0)
        grid_min = float(vals.min())
        # the LP must do at least as well as the grid, up to grid resolution
        assert nu <= grid_min + 1e-9
        slopes = np.linalg.norm(np.array([c.slope for c in cuts]), axis=1).max()
        assert nu >= grid_min - 0.5 * np.sqrt(3.0) * 0.02 * slopes
        assert model_value(cuts, argmin) == pytest.approx(nu, abs=1e-8)

    def test_needs_cuts(self):
        with pytest.raises(ValueError):
            model_minimum([], 1.0)

    def test_views_follow_added_cuts(self, monkeypatch):
        rng = np.random.default_rng(30)
        cuts = random_cuts(rng, 5, 3)
        minima = [model_minimum(cuts[:k], 1.0) for k in range(1, 6)]
        # room for two cuts: the arrays double to four, then grow to the
        # model's cap of five
        monkeypatch.setattr(solver, "CUT_BLOCK", 2)
        model = CutModel(1, 3, 1.0, len(cuts))
        for k, cut in enumerate(cuts, start=1):
            add_cut(model, cut)
            assert model.size == k
            # box rows first, then the cuts in the order they came
            offsets, slopes = cut_arrays(cuts[:k])
            a_mat, b_vec = model.level_set(0, 0.5)
            np.testing.assert_array_equal(a_mat, np.vstack([np.eye(3), -np.eye(3), slopes]))
            np.testing.assert_array_equal(b_vec, np.concatenate([np.ones(6), 0.5 - offsets]))
            value, argmin = model.minima()[0], lp_argmin(model)
            assert value == pytest.approx(minima[k - 1][0], abs=1e-12)
            np.testing.assert_allclose(argmin, minima[k - 1][1], atol=1e-12)

    def test_incremental_minimum_matches_tight_cold_solve(self, bench3_run, bench5_run):
        # every prefix of both benchmark solves, added one cut at a time as
        # the solve does
        checked = tight = 0
        for _, problem, state, _ in (bench3_run, bench5_run):
            box = problem.box_radius
            model = CutModel(1, problem.measurements.grid.n_samples, box, len(state.cuts))
            for k, cut in enumerate(state.cuts, start=1):
                add_cut(model, cut)
                value, argmin = model.minima()[0], lp_argmin(model)
                reference = certified_cold_minimum(*cut_arrays(state.cuts[:k]), box)
                assert np.abs(argmin).max() <= box * (1 + 1e-12)
                if reference is None:
                    continue
                ref_value, lower, upper = reference
                checked += 1
                # the reference's own certificate brackets the model minimum
                assert lower - 1e-4 <= value <= upper + 1e-4
                if upper - lower <= 1e-6:
                    tight += 1
                    assert abs(value - ref_value) <= 1e-4
        assert checked >= 75 and tight >= 50

    def test_basis_multipliers_certify_the_value(self, bench3_run, bench5_run):
        # every cut prefix of both benchmark solves and of one noise solve,
        # added one cut at a time as the solve does: the returned value is
        # the dual objective of the basis multipliers, which are feasible
        cfg = three_spike_config()
        noisy = build_problem(cfg, noise=uniform_noise(cfg.samples.size, 2e-3, 0))
        runs = [(problem, state.cuts) for _, problem, state, _ in (bench3_run, bench5_run)]
        runs.append((noisy, solve(noisy, max_iters=100).cuts))
        checked = 0
        for problem, cuts in runs:
            model = CutModel(1, problem.measurements.grid.n_samples, problem.box_radius,
                             len(cuts))
            for k, cut in enumerate(cuts, start=1):
                add_cut(model, cut)
                value, argmin = model.minima()[0], lp_argmin(model)
                offsets, slopes = cut_arrays(cuts[:k])
                bound, mu, scale = basis_bound(model, offsets, slopes)
                assert np.all(model._mult >= 0.0)
                assert mu.sum() == pytest.approx(1.0, abs=1e-12)
                # the terms run to ~1e5 times the value on the benchmark
                # solves, so the match is relative to their size (3e-16
                # measured at worst)
                assert abs(value - bound) <= 1e-14 * scale
                # the argmin violates no cut by more than the row tolerance
                # plus the round-off of its product with the slopes, so the
                # model minimum lies at most that far above the value
                excess = offsets + slopes @ argmin - value
                roundoff = argmin.size * np.finfo(float).eps * (
                    np.abs(slopes) @ np.abs(argmin) + abs(value))
                assert np.all(excess <= solver.LP_ROW_TOL
                              * np.maximum(1.0, np.abs(offsets)) + roundoff)
                checked += 1
        assert checked == sum(len(cuts) for _, cuts in runs)

    def test_warm_basis_matches_one_cold_solve(self):
        # a model re-solved after every cut and one that solves all cuts at
        # once from the first cut's basis reach the same minimum
        rng = np.random.default_rng(32)
        cuts = random_cuts(rng, 12, 4)
        warm = CutModel(1, 4, 1.0, len(cuts))
        for cut in cuts:
            add_cut(warm, cut)
            warm_value, warm_argmin = warm.minima()[0], lp_argmin(warm)
        cold_value, cold_argmin = model_minimum(cuts, 1.0)
        assert warm_value == pytest.approx(cold_value, abs=1e-12)
        np.testing.assert_allclose(warm_argmin, cold_argmin, atol=1e-12)

    def test_pivot_cap_raises_no_convergence(self, monkeypatch):
        rng = np.random.default_rng(31)
        cuts = random_cuts(rng, 6, 3)
        model = cut_model(cuts, 1.0)
        monkeypatch.setattr(solver, "LP_PIVOTS_PER_ROW", 0)
        # the first cut's basis is not optimal for all six, and no pivot is
        # allowed: no valid lower bound, so the model fails loud
        with pytest.raises(NoConvergenceError, match=r"6 cuts.*after 0 pivots"):
            model.minima()

    def test_singular_basis_raises_no_convergence(self):
        rng = np.random.default_rng(33)
        cuts = random_cuts(rng, 6, 3)
        model = CutModel(1, 3, 1.0, len(cuts))
        for cut in cuts[:5]:
            add_cut(model, cut)
        value, argmin = model.minima()[0], lp_argmin(model)
        # one row twice in the basis, and a cut the vertex violates
        model._basis[0, 1] = model._basis[0, 0]
        add_cut(model, Cut(argmin, value + 1.0, cuts[5].slope))
        with pytest.raises(NoConvergenceError, match=r"6 cuts.*singular basis"):
            model.minima()

    def test_cycling_lp_stops_by_blands_rule(self):
        # the cuts of the one-source config below in the order its solve
        # added them: the data plane, then one plane -pi + (pi phi(t) - y).lam
        # per certificate maximizer t.  At the ninth cut the most violated
        # row entering cycled through bases at a degenerate vertex until the
        # pivot cap; a basis that comes back turns the LP to Bland's rule
        cfg = parse_config("sources = 0.5\namplitudes = 1\nsigma = 0.3\nm = 31\n")
        problem = build_problem(cfg)
        maxima = [0.5, 0.8517261242631294, 0.17006039654598826, 0.7146607616956084,
                  0.2992096405156984, 0.6425556367350818, 0.3672860234940728,
                  0.597170789322532]
        y, pi, box = problem.measurements.y, problem.penalty, problem.box_radius
        phi = build_phi(problem.measurements.grid, problem.kernel, np.array(maxima))
        slopes = np.vstack([-y, -y + pi * phi.T])
        offsets = np.array([0.0] + [-pi] * len(maxima))
        model = CutModel(1, y.size, box, len(offsets))
        for offset, slope in zip(offsets, slopes):
            add_cut(model, Cut(np.zeros(y.size), float(offset), slope))
            value = model.minima()[0]
        _, lower, upper = certified_cold_minimum(offsets, slopes, box)
        assert lower - 1e-9 <= value <= upper + 1e-9
        bound, _, scale = basis_bound(model, offsets, slopes)
        assert abs(value - bound) <= 1e-14 * scale


class TestProjectToLevel:
    def test_interior_point_unchanged(self):
        cut = Cut(np.zeros(3), 0.0, np.array([1.0, 0.0, 0.0]))
        point = np.array([-1.0, 0.2, 0.1])  # model value -1 < level 0
        out = project([cut], 0.0, point, 10.0)
        np.testing.assert_allclose(out, point, atol=1e-12)

    def test_halfspace_projection(self):
        cut = Cut(np.zeros(3), 0.0, np.array([1.0, 0.0, 0.0]))
        out = project([cut], 0.0, np.array([2.0, 0.5, -0.5]), 10.0)
        np.testing.assert_allclose(out, [0.0, 0.5, -0.5], atol=1e-10)

    def test_against_penalty_oracle(self):
        from test_numerics import penalty_projection_oracle

        rng = np.random.default_rng(27)
        for _ in range(10):
            cuts = random_cuts(rng, 5, 3)
            model = cut_model(cuts, 5.0)
            level = model.minima()[0] + 1.0
            point = rng.normal(size=3) * 4.0
            out = model.project(0, level, point)
            slopes = np.array([c.slope for c in cuts])
            offsets = np.array([c.value - c.slope @ c.anchor for c in cuts])
            eye = np.eye(3)
            a_full = np.vstack([slopes, eye, -eye])
            b_full = np.concatenate([level - offsets, np.full(6, 5.0)])
            ref = penalty_projection_oracle(point, a_full, b_full)
            assert np.linalg.norm(out - ref) <= 1e-5

    def test_empty_level_raises(self):
        rng = np.random.default_rng(28)
        model = cut_model(random_cuts(rng, 4, 3), 2.0)
        value = model.minima()[0]
        with pytest.raises(LevelSetEmptyError):
            model.project(0, value - 1.0, np.zeros(3))

    def test_fallback_clips_model_argmin(self, monkeypatch):
        # a failed projection returns the model's own LP vertex, clipped to
        # the box: for the one cut 0.5 - lam_0 + 2 lam_2 over |lam| <= 1,
        # lam_j sits on its lower bound where the slope is positive and on
        # its upper bound elsewhere, with value 0.5 - 1 - 2 = -2.5
        monkeypatch.setattr(numerics, "project_polyhedron", failing_projection)
        model = cut_model([Cut(np.zeros(3), 0.5, np.array([-1.0, 0.0, 2.0]))], 1.0)
        assert model.minima() == [-2.5]
        out = model.project(0, -2.0, np.full(3, 0.3))
        np.testing.assert_array_equal(out, [1.0, 1.0, -1.0])
        assert not np.shares_memory(out, model._vertex)
        # within 1e-9 below the minimum the vertex still stands in
        np.testing.assert_array_equal(model.project(0, -2.5 - 5e-10, np.zeros(3)),
                                      [1.0, 1.0, -1.0])
        with pytest.raises(LevelSetEmptyError):
            model.project(0, -3.0, np.zeros(3))


class TestSolve:
    def test_zero_iterations(self):
        state = solve(small_problem(), max_iters=0)
        assert state.cuts == []
        assert state.n_iterations == 0
        np.testing.assert_array_equal(state.iterate, np.zeros(5))

    def test_memory_follows_cuts_not_iteration_cap(self):
        # the one-source TINY problem stops at its fixed point within a few
        # dozen iterations; room for a million cuts would take ~64 MB
        tracemalloc.start()
        try:
            state = solve(small_problem(m=7, penalty=2.0, box=100.0), max_iters=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.n_iterations < 1000
        assert peak < 10 * 2**20

    def test_bound_monotonicity_and_order(self):
        state = solve(small_problem(), max_iters=120)
        upper = np.array(state.upper_history)
        lower = np.array(state.lower_history)
        assert np.all(np.diff(upper) <= 1e-9)
        assert np.all(np.diff(lower) >= -1e-9)
        assert np.all(upper - lower >= -1e-9 * np.maximum(1.0, np.abs(upper)))

    def test_model_minorizes_objective(self):
        problem = small_problem()
        state = solve(problem, max_iters=60)
        rng = np.random.default_rng(29)
        for _ in range(100):
            lam = rng.uniform(-problem.box_radius, problem.box_radius, size=5)
            m_val = model_value(state.cuts, lam)
            p_val = penalty_objective(problem, lam)
            assert m_val <= p_val + 1e-9 * max(1.0, abs(p_val))

    def test_projected_iterates_feasible(self):
        problem = small_problem()
        state = solve(problem, max_iters=80)
        for idx, lam in enumerate(state.iterate_history):
            level = state.level_history[idx]
            cuts = state.cuts[:idx + 1]
            for cut in cuts:
                residual = (cut.value + cut.slope @ (lam - cut.anchor) - level)
                assert residual <= 1e-8 * max(1.0, np.linalg.norm(cut.slope))
            assert np.abs(lam).max() <= problem.box_radius + 1e-8

    def test_recovers_single_source(self):
        problem = small_problem(m=7)
        state = solve(problem, max_iters=200)
        grid = CertificateGrid(problem.measurements.grid, problem.kernel)
        (t,), (v,) = grid.supremum(state.iterate[None])
        assert abs(t - 0.5) < 1e-6
        assert v == pytest.approx(1.0, abs=1e-5)

    def test_one_lp_per_iteration_with_fallback(self, monkeypatch):
        # a projection that always fails makes every iteration fall back to
        # the model argmin, which must come from that iteration's single solve
        argmins = []
        minima = CutModel.minima

        def counting_minima(model):
            values = minima(model)
            argmins.append(lp_argmin(model))
            return values

        monkeypatch.setattr(CutModel, "minima", counting_minima)
        monkeypatch.setattr(numerics, "project_polyhedron", failing_projection)
        problem = small_problem()
        state = solve(problem, max_iters=15)
        # the solve stops at the first iterate that repeats its predecessor
        iterates = [np.zeros(5)] + state.iterate_history
        repeats = [np.array_equal(a, b) for a, b in zip(iterates, iterates[1:])]
        assert repeats == [False] * (state.n_iterations - 1) + [True]
        assert len(argmins) == state.n_iterations
        box = problem.box_radius
        np.testing.assert_array_equal(state.iterate, np.clip(argmins[-1], -box, box))

    def test_nnls_failure_falls_back_to_model_argmin(self, monkeypatch):
        # no NNLS step allowed: a projection whose most violated row is not
        # its whole active set raises NoConvergenceError and the iterate
        # becomes that iteration's clipped LP argmin
        argmins, outcomes = [], []
        minima, project = CutModel.minima, numerics.project_polyhedron

        def recording_minima(model):
            values = minima(model)
            argmins.append(lp_argmin(model))
            return values

        def recording_project(point, a_mat, b_vec, warm=None):
            try:
                outcomes.append(project(point, a_mat, b_vec, warm))
            except NoConvergenceError:
                outcomes.append(None)
                raise
            return outcomes[-1]

        monkeypatch.setattr(numerics, "NNLS_STEPS_PER_ROW", 0)
        monkeypatch.setattr(numerics, "project_polyhedron", recording_project)
        monkeypatch.setattr(CutModel, "minima", recording_minima)
        problem = small_problem()
        state = solve(problem, max_iters=15)
        assert len(argmins) == len(outcomes) == state.n_iterations
        assert sum(outcome is None for outcome in outcomes) >= state.n_iterations // 2
        box = problem.box_radius
        for iterate, argmin, outcome in zip(state.iterate_history, argmins, outcomes):
            expected = np.clip(argmin if outcome is None else outcome, -box, box)
            np.testing.assert_array_equal(iterate, expected)

    def test_benchmark_solves_never_fall_back(self, projection_failures):
        # both benchmark solves reach their fixed point with every level-set
        # projection solved, none replaced by the model argmin
        for cfg, max_iters in ((three_spike_config(), 500), (five_spike_config(), 2000)):
            state = solve(build_problem(cfg), max_iters=max_iters)
            assert state.n_iterations < max_iters
        assert projection_failures == []

    def test_corrections_cannot_end_on_a_row_outside_the_working_set(self, projection_failures):
        # at iteration 98 of this sweep point (140 rows) the corrections onto
        # an ill-conditioned active set move x over a row the working set
        # left out; that row must join the set and the NNLS be solved again
        cfg = three_spike_config()
        problem = build_problem(cfg, noise=uniform_noise(cfg.samples.size, 8e-6, 10))
        solve(problem, max_iters=100)
        assert projection_failures == []

    @pytest.mark.parametrize("w_c,seed", [(0.004, 17), (0.006, 19), (4e-6, 2), (0.06, 29)])
    def test_first_noisy_projection_does_not_fall_back(self, projection_failures, w_c, seed):
        # from lambda = 0 the projection lands ~1e5 away, where one ulp of
        # a.x exceeds a tolerance scaled by |point| = 0 alone; these noise
        # draws of the three-spike sweep used to fall back to a box vertex
        cfg = three_spike_config()
        noise = uniform_noise(cfg.samples.size, w_c, seed)
        state = solve(build_problem(cfg, noise=noise), max_iters=1)
        assert projection_failures == []
        lam, cut, level = state.iterate, state.cuts[0], state.level_history[0]
        excess = cut.value + cut.slope @ (lam - cut.anchor) - level
        assert excess <= 1e-14 * np.linalg.norm(cut.slope) * np.linalg.norm(lam)

    def test_converged_noisy_solve_falls_back_and_keeps_invariants(self, projection_failures):
        # run to its fixed point, this noisy solve meets a level set thinner
        # than the projection resolves (at 194 rows): the model argmin stands
        # in once, and the iterates still satisfy criterion 9's checks
        cfg = three_spike_config()
        problem = build_problem(cfg, noise=uniform_noise(cfg.samples.size, 6e-6, 2))
        state = solve(problem, max_iters=3000)
        assert projection_failures
        assert all(isinstance(exc, InfeasibleError) for exc in projection_failures)
        assert state.n_iterations < 3000
        np.testing.assert_array_equal(state.iterate_history[-1], state.iterate_history[-2])
        upper = np.array(state.upper_history)
        lower = np.array(state.lower_history)
        assert np.all(np.diff(upper) <= 1e-9) and np.all(np.diff(lower) >= -1e-9)
        for idx, lam in enumerate(state.iterate_history):
            level = state.level_history[idx]
            for cut in state.cuts[:idx + 1]:
                residual = cut.value + cut.slope @ (lam - cut.anchor) - level
                assert residual <= 1e-8 * max(1.0, float(np.linalg.norm(cut.slope)))
            assert np.abs(lam).max() <= problem.box_radius + 1e-8

    def test_exit_repeats_last_cut(self, bench3_run):
        # at the fixed point, the next oracle call would add the last cut again
        _, problem, state, _ = bench3_run
        assert state.n_iterations < 500
        last = state.cuts[-1]
        np.testing.assert_array_equal(state.iterate, last.anchor)
        grid = CertificateGrid(problem.measurements.grid, problem.kernel)
        (value,), (slope,) = _oracle(problem.penalty, problem.measurements.y[None],
                                     state.iterate[None], grid)
        assert value == last.value
        np.testing.assert_array_equal(slope, last.slope)

    def test_max_iters_is_an_upper_bound(self):
        problem = build_problem(three_spike_config())
        long = solve(problem, max_iters=2000)
        short = solve(problem, max_iters=long.n_iterations)
        assert long.n_iterations < 2000
        assert short.upper_history == long.upper_history
        assert short.lower_history == long.lower_history
        assert short.level_history == long.level_history
        assert short.gap_history == long.gap_history
        np.testing.assert_array_equal(short.iterate, long.iterate)

    @pytest.mark.parametrize("config, cap", [(three_spike_config, 500), (five_spike_config, 1000)])
    def test_a_smaller_cap_solves_a_prefix(self, config, cap):
        # a solve's first c iterates do not depend on its cap c, so the
        # reference record serves a smaller cap with its first rows
        problem = build_problem(config())
        full = np.array(solve(problem, max_iters=cap).iterate_history)
        n = len(full)
        assert n < cap and np.array_equal(full[-1], full[-2])
        for c in range(1, n + 3):
            capped = np.array(solve(problem, max_iters=c).iterate_history)
            assert capped.tobytes() == full[:c].tobytes(), c

    def test_deterministic_histories(self):
        problem = build_problem(three_spike_config())
        first = solve(problem, max_iters=150)
        second = solve(problem, max_iters=150)
        assert first.upper_history == second.upper_history
        assert first.lower_history == second.lower_history
        assert first.gap_history == second.gap_history


@pytest.fixture(scope="class")
def noisy_solve_work():
    """One noisy three-spike solve (w_c = 2e-3, seed 0, 100 iterations) and
    the work it did: NNLS QR factorizations and added columns, level-set
    rows, the runs of each ``newton_on_slope`` call, the runs evaluated by
    each ``_derivatives`` call, ``Kernel.derivative`` calls and the
    cut-model basis rows each LP changed."""
    work = {key: [] for key in ("factorizations", "added", "rows", "newton", "derivatives",
                                "kernel_derivative", "basis_changes")}
    refactor, add = numerics._PassiveQR.refactor, numerics._PassiveQR.add
    project = numerics.project_polyhedron
    newton, derivatives = certificate.newton_on_slope, certificate._derivatives
    kernel_derivative, minima = Kernel.derivative, CutModel.minima

    def counting_refactor(passive, cols):
        work["factorizations"].append(1)
        return refactor(passive, cols)

    def counting_add(passive, t):
        added = add(passive, t)
        work["added"].append(added)
        return added

    def counting_project(point, a_mat, b_vec, warm=None):
        work["rows"].append(a_mat.shape[0])
        return project(point, a_mat, b_vec, warm)

    def counting_newton(kernel, samples, weights, t, *args):
        work["newton"].append(len(t))
        return newton(kernel, samples, weights, t, *args)

    def counting_derivatives(kernel, samples, weights, t):
        work["derivatives"].append(len(t))
        return derivatives(kernel, samples, weights, t)

    def counting_kernel_derivative(kernel, t, order):
        work["kernel_derivative"].append(order)
        return kernel_derivative(kernel, t, order)

    def counting_minima(model):
        before = model._basis.copy()
        result = minima(model)
        work["basis_changes"].append(int(np.sum(model._basis != before)))
        return result

    cfg = three_spike_config()
    problem = build_problem(cfg, noise=uniform_noise(cfg.samples.size, 2e-3, 0))
    # the scan tables are built before counting, whichever test built them first
    CertificateGrid(problem.measurements.grid, problem.kernel)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics._PassiveQR, "refactor", counting_refactor)
        patch.setattr(numerics._PassiveQR, "add", counting_add)
        patch.setattr(numerics, "project_polyhedron", counting_project)
        patch.setattr(certificate, "newton_on_slope", counting_newton)
        patch.setattr(certificate, "_derivatives", counting_derivatives)
        patch.setattr(Kernel, "derivative", counting_kernel_derivative)
        patch.setattr(CutModel, "minima", counting_minima)
        state = solve(problem, max_iters=100)
    return state, work


class TestWorkCounts:
    """Work done by one noisy three-spike solve, pinned as counts: wall time
    swings too much to guard."""

    def test_projection_work(self, noisy_solve_work):
        state, work = noisy_solve_work
        assert state.n_iterations == len(work["rows"]) == 100
        # each NNLS starts from the previous projection's rows: QR
        # factorizations plus added columns per projection, 5.8 measured,
        # where a start from the most violated row alone takes 14.0
        steps = len(work["factorizations"]) + sum(work["added"])
        assert steps <= 8.0 * state.n_iterations

    def test_supremum_work(self, noisy_solve_work):
        state, work = noisy_solve_work
        n = state.n_iterations
        # one newton_on_slope call per oracle call takes all its runs: one
        # from every scan local maximum and end-cell bump of its anchor, the
        # zero start and then each projected iterate but the last
        grid = CertificateGrid(state.problem.measurements.grid, state.problem.kernel)
        runs = []
        for weights in [np.zeros(grid.grid.n_samples), *state.iterate_history[:n - 1]]:
            slopes = grid.end_slope @ weights
            ends = int(slopes[0] > 0.0 > slopes[1]) + int(slopes[2] > 0.0 > slopes[3])
            runs.append(grid.local_max_indices(grid.values(weights)).size + ends)
        assert work["newton"] == runs
        # each run evaluates its start and then its steps: 3.47 kernel
        # evaluations per run measured
        assert sum(work["derivatives"]) <= 4.0 * sum(work["newton"])
        # one call evaluates every start, and each step every run still
        # going: 2.9 step calls per oracle call measured
        assert len(work["derivatives"]) - len(work["newton"]) <= 3.0 * n
        # no Kernel.derivative call: Newton evaluates its own points, and
        # the end-cell slopes come from the grid's tables
        assert work["kernel_derivative"] == []

    def test_cut_model_work(self, noisy_solve_work):
        state, work = noisy_solve_work
        # one CutModel.minima call per iteration
        assert len(work["basis_changes"]) == state.n_iterations
        # each LP starts from the previous basis: 1.10 basis rows changed per
        # iteration measured, where a start from the first cut's basis takes
        # 32 to 119 pivots per LP from iteration 20 on
        assert sum(work["basis_changes"]) <= 1.5 * state.n_iterations
