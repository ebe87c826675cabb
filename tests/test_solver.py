"""Penalty objective, subgradient oracle, model operations, and the bundle
method itself."""

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus

from conftest import five_spike_config, three_spike_config
from dualspike import numerics
from dualspike.certificate import CertificateGrid
from dualspike.errors import DualSpikeError, InfeasibleError, LevelSetEmptyError
from dualspike.experiments import build_problem
from dualspike.kernel import Kernel
from dualspike.model import (SampleGrid, SourceModel, feature_vector,
                             synthesize)
from dualspike.solver import (Cut, CutModel, PenaltyProblem, _oracle,
                              model_minimum, model_value, penalty_objective,
                              project_to_level, solve, subgradient)


def small_problem(m=5, sigma=0.1, penalty=5.0, box=10.0):
    src = SourceModel([0.5], [1.0])
    grid = SampleGrid.equispaced(m)
    kernel = Kernel(sigma)
    return PenaltyProblem(synthesize(src, grid, kernel), kernel, penalty, box)


def failing_projection(point, a_mat, b_vec):
    raise InfeasibleError("forced fallback")


def random_cuts(rng, n_cuts, m):
    return [Cut(rng.normal(size=m), float(rng.normal()), rng.normal(size=m))
            for _ in range(n_cuts)]


def project(cuts, level, point, box_radius):
    model = CutModel.from_cuts(cuts, box_radius)
    return project_to_level(model, level, point, model.minimum())


class NotOptimal:
    """A HiGHS instance whose solves all report a non-optimal status."""

    def __init__(self, lp):
        self._lp = lp

    def __getattr__(self, name):
        return getattr(self._lp, name)

    def getModelStatus(self):
        return HighsModelStatus.kSolveError


class DualInfeasible:
    """A HiGHS instance whose first ``flagged`` solves report one dual
    infeasibility, recording each ``clearSolver`` call."""

    def __init__(self, lp, flagged):
        self._lp = lp
        self.flagged = flagged
        self.clears = 0

    def __getattr__(self, name):
        return getattr(self._lp, name)

    def run(self):
        self.flagged -= 1
        return self._lp.run()

    def getInfo(self):
        info = self._lp.getInfo()
        if self.flagged >= 0:
            info.num_dual_infeasibilities = 1
        return info

    def clearSolver(self):
        self.clears += 1
        return self._lp.clearSolver()


def recording_lp_min(monkeypatch):
    """Patch ``numerics.lp_min`` to record (offsets, slopes, result) per call."""
    calls = []
    lp_min = numerics.lp_min

    def recording(offsets, slopes, box_radius):
        result = lp_min(offsets, slopes, box_radius)
        calls.append((offsets.copy(), slopes.copy(), result))
        return result

    monkeypatch.setattr(numerics, "lp_min", recording)
    return calls


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
                    + problem.penalty * feature_vector(problem.measurements.grid,
                                                       problem.kernel, t_active))
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

    def test_duplicate_cuts(self):
        rng = np.random.default_rng(25)
        cut = Cut(rng.normal(size=3), 1.0, rng.normal(size=3))
        nu1, x1 = model_minimum([cut], 1.0)
        nu2, x2 = model_minimum([cut, cut], 1.0)
        assert nu1 == pytest.approx(nu2, abs=1e-12)
        np.testing.assert_allclose(x1, x2, atol=1e-9)

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

    def test_views_follow_added_cuts(self):
        rng = np.random.default_rng(30)
        cuts = random_cuts(rng, 5, 3)
        model = CutModel(3, 1.0, 8)
        for k, cut in enumerate(cuts, start=1):
            model.add(cut)
            assert model.size == k
            np.testing.assert_array_equal(model.slopes, [c.slope for c in cuts[:k]])
            np.testing.assert_allclose(model.offsets,
                                       [c.value - c.slope @ c.anchor for c in cuts[:k]],
                                       rtol=1e-15, atol=1e-15)

    def test_incremental_minimum_matches_tight_cold_solve(self, bench3_run, bench5_run):
        # every prefix of both benchmark solves, added one cut at a time as
        # the solve does
        checked = tight = 0
        for _, problem, state, _ in (bench3_run, bench5_run):
            box = problem.box_radius
            model = CutModel(problem.measurements.grid.n_samples, box, len(state.cuts))
            for cut in state.cuts:
                model.add(cut)
                value, argmin = model.minimum()
                reference = certified_cold_minimum(model.offsets, model.slopes, box)
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

    def test_non_optimal_solve_falls_back_to_lp_min(self, monkeypatch):
        fallback = recording_lp_min(monkeypatch)
        rng = np.random.default_rng(31)
        cuts = random_cuts(rng, 6, 3)
        model = CutModel.from_cuts(cuts, 1.0)
        assert model.minimum()[0] == pytest.approx(model_minimum(cuts, 1.0)[0], abs=1e-9)
        assert not fallback
        model._lp = NotOptimal(model._lp)
        value, argmin = model.minimum()
        assert len(fallback) == 1
        offsets, slopes, (fb_value, fb_argmin) = fallback[0]
        np.testing.assert_array_equal(offsets, model.offsets)
        np.testing.assert_array_equal(slopes, model.slopes)
        assert value == fb_value
        np.testing.assert_array_equal(argmin, fb_argmin)

    def test_dual_infeasible_solve_is_redone_cold(self, monkeypatch):
        fallback = recording_lp_min(monkeypatch)
        rng = np.random.default_rng(32)
        cuts = random_cuts(rng, 6, 3)
        clean = model_minimum(cuts, 1.0)
        model = CutModel(3, 1.0, len(cuts))
        for cut in cuts[:-1]:
            model.add(cut)
        model.minimum()
        model._lp = flagged = DualInfeasible(model._lp, flagged=1)
        model.add(cuts[-1])
        value, argmin = model.minimum()
        # one cold re-solve on the same instance, which comes back clean
        assert flagged.clears == 1
        assert not fallback
        assert value == pytest.approx(clean[0], abs=1e-9)
        np.testing.assert_allclose(argmin, clean[1], atol=1e-9)

    def test_dual_infeasible_resolve_falls_back_to_lp_min(self, monkeypatch):
        fallback = recording_lp_min(monkeypatch)
        rng = np.random.default_rng(33)
        cuts = random_cuts(rng, 6, 3)
        model = CutModel.from_cuts(cuts, 1.0)
        model._lp = flagged = DualInfeasible(model._lp, flagged=2)
        value, _ = model.minimum()
        assert flagged.clears == 1
        assert len(fallback) == 1
        assert value == fallback[0][2][0]


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
            model = CutModel.from_cuts(cuts, 5.0)
            minimum = model.minimum()
            level = minimum[0] + 1.0
            point = rng.normal(size=3) * 4.0
            out = project_to_level(model, level, point, minimum)
            slopes = np.array([c.slope for c in cuts])
            offsets = np.array([c.value - c.slope @ c.anchor for c in cuts])
            eye = np.eye(3)
            a_full = np.vstack([slopes, eye, -eye])
            b_full = np.concatenate([level - offsets, np.full(6, 5.0)])
            ref = penalty_projection_oracle(point, a_full, b_full)
            assert np.linalg.norm(out - ref) <= 1e-5

    def test_empty_level_raises(self):
        rng = np.random.default_rng(28)
        model = CutModel.from_cuts(random_cuts(rng, 4, 3), 2.0)
        minimum = model.minimum()
        with pytest.raises(LevelSetEmptyError):
            project_to_level(model, minimum[0] - 1.0, np.zeros(3), minimum)

    def test_fallback_clips_model_argmin(self, monkeypatch):
        monkeypatch.setattr(numerics, "project_polyhedron", failing_projection)
        model = CutModel.from_cuts([Cut(np.zeros(3), 0.0, np.array([1.0, 0.0, 0.0]))], 1.0)
        minimum = (-1.0, np.array([-3.0, 0.5, 2.0]))
        out = project_to_level(model, 0.0, np.zeros(3), minimum)
        np.testing.assert_array_equal(out, [-1.0, 0.5, 1.0])
        with pytest.raises(LevelSetEmptyError):
            project_to_level(model, -2.0, np.zeros(3), minimum)


class TestSolve:
    def test_zero_iterations(self):
        state = solve(small_problem(), max_iters=0)
        assert state.cuts == []
        assert state.n_iterations == 0
        np.testing.assert_array_equal(state.iterate, np.zeros(5))

    def test_level_mix_validation(self):
        with pytest.raises(ValueError):
            solve(small_problem(), level_mix=0.0, max_iters=1)
        with pytest.raises(ValueError):
            solve(small_problem(), level_mix=1.0, max_iters=1)

    def test_bound_monotonicity_and_order(self):
        state = solve(small_problem(), max_iters=120, record_iterates=True)
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
        state = solve(problem, max_iters=80, record_iterates=True)
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
        t, v = grid.supremum(state.iterate)
        assert abs(t - 0.5) < 1e-6
        assert v == pytest.approx(1.0, abs=1e-5)

    def test_one_lp_per_iteration_with_fallback(self, monkeypatch):
        # a projection that always fails makes every iteration fall back to
        # the model argmin, which must come from that iteration's single solve
        argmins = []
        minimum = CutModel.minimum

        def counting_minimum(model):
            value, argmin = minimum(model)
            argmins.append(argmin)
            return value, argmin

        monkeypatch.setattr(CutModel, "minimum", counting_minimum)
        monkeypatch.setattr(numerics, "project_polyhedron", failing_projection)
        problem = small_problem()
        state = solve(problem, max_iters=15, record_iterates=True)
        # the solve stops at the first iterate that repeats its predecessor
        iterates = [np.zeros(5)] + state.iterate_history
        repeats = [np.array_equal(a, b) for a, b in zip(iterates, iterates[1:])]
        assert repeats == [False] * (state.n_iterations - 1) + [True]
        assert len(argmins) == state.n_iterations
        box = problem.box_radius
        np.testing.assert_array_equal(state.iterate, np.clip(argmins[-1], -box, box))

    def test_nnls_failure_falls_back_to_model_argmin(self, monkeypatch):
        # nnls at its iteration limit: each projection raises
        # NoConvergenceError and the iterate becomes the clipped LP argmin
        nnls_calls = []
        argmins = []
        minimum = CutModel.minimum

        def stalled(*args, **kwargs):
            nnls_calls.append(1)
            raise RuntimeError("Maximum number of iterations reached.")

        def recording_minimum(model):
            value, argmin = minimum(model)
            argmins.append(argmin)
            return value, argmin

        monkeypatch.setattr(numerics, "nnls", stalled)
        monkeypatch.setattr(CutModel, "minimum", recording_minimum)
        problem = small_problem()
        state = solve(problem, max_iters=15, record_iterates=True)
        assert len(nnls_calls) == len(argmins) == state.n_iterations
        box = problem.box_radius
        for iterate, argmin in zip(state.iterate_history, argmins):
            np.testing.assert_array_equal(iterate, np.clip(argmin, -box, box))

    def test_benchmark_solves_never_fall_back(self, monkeypatch):
        # both benchmark solves reach their fixed point with every level-set
        # projection solved, none replaced by the model argmin
        raised = []
        project = numerics.project_polyhedron

        def recording(point, a_mat, b_vec):
            try:
                return project(point, a_mat, b_vec)
            except DualSpikeError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(numerics, "project_polyhedron", recording)
        for cfg, max_iters in ((three_spike_config(), 500), (five_spike_config(), 2000)):
            state = solve(build_problem(cfg), level_mix=cfg.alpha, max_iters=max_iters)
            assert state.n_iterations < max_iters
        assert raised == []

    def test_exit_repeats_last_cut(self, bench3_run):
        # at the fixed point, the next oracle call would add the last cut again
        _, problem, state, _ = bench3_run
        assert state.n_iterations < 500
        last = state.cuts[-1]
        np.testing.assert_array_equal(state.iterate, last.anchor)
        grid = CertificateGrid(problem.measurements.grid, problem.kernel)
        value, slope, _ = _oracle(problem, state.iterate, grid)
        assert value == last.value
        np.testing.assert_array_equal(slope, last.slope)

    def test_max_iters_is_an_upper_bound(self):
        problem = build_problem(three_spike_config())
        long = solve(problem, level_mix=0.25, max_iters=2000)
        short = solve(problem, level_mix=0.25, max_iters=long.n_iterations)
        assert long.n_iterations < 2000
        assert short.upper_history == long.upper_history
        assert short.lower_history == long.lower_history
        assert short.level_history == long.level_history
        assert short.gap_history == long.gap_history
        np.testing.assert_array_equal(short.iterate, long.iterate)

    def test_deterministic_histories(self):
        problem = build_problem(three_spike_config())
        first = solve(problem, level_mix=0.25, max_iters=150)
        second = solve(problem, level_mix=0.25, max_iters=150)
        assert first.upper_history == second.upper_history
        assert first.lower_history == second.lower_history
        assert first.gap_history == second.gap_history
