"""Dense linear algebra and the convex subproblem solvers."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

from dualspike import numerics
from dualspike.errors import InfeasibleError, NoConvergenceError, RankDeficientError
from dualspike.numerics import WarmStart, least_squares, project_polyhedron, svd
from dualspike.solver import Cut, CutModel
from helpers import add_cut, full_row_projection, lp_argmin, lp_minimum


def penalty_projection_oracle(point, a_mat, b_vec):
    """Quadratic-penalty continuation for the projection problem.

    Each penalty subproblem 0.5|x-p|^2 + rho * sum max(Ax-b, 0)^2 is
    piecewise quadratic; its exact stationary point is found by iterating
    on the violated set.
    """
    n = point.size
    x = point.copy()
    for rho in [1e2, 1e4, 1e6, 1e8]:
        for _ in range(300):
            violated = (a_mat @ x - b_vec) > 0.0
            if violated.any():
                a_v = a_mat[violated]
                h = np.eye(n) + 2.0 * rho * (a_v.T @ a_v)
                x_new = np.linalg.solve(h, point + 2.0 * rho * (a_v.T @ b_vec[violated]))
            else:
                x_new = point.copy()
            moved = np.linalg.norm(x_new - x)
            x = x_new
            if moved < 1e-15 and np.array_equal((a_mat @ x - b_vec) > 0.0, violated):
                break
    return x


def feasible_instance(rng, n_rows, n, box):
    """Random halfspaces guaranteed to share an interior point with the box."""
    a = rng.normal(size=(n_rows, n))
    interior = rng.uniform(-0.5 * box, 0.5 * box, size=n)
    b = a @ interior + rng.uniform(0.1, 1.5, size=n_rows)
    return a, b


def with_box(a, b, n, box):
    """Fold the box |x|_inf <= box into the rows of A x <= b as +-I rows."""
    eye = np.eye(n)
    return (np.vstack([np.asarray(a, dtype=float).reshape(-1, n), eye, -eye]),
            np.concatenate([np.asarray(b, dtype=float).ravel(), np.full(2 * n, box)]))


@st.composite
def scaled_polyhedra(draw):
    """(point, A, b, interior): random halfspaces of mixed row scale around an
    interior point, exact and nearly duplicated copies of some rows, and a box
    of radius about 1e5, in shuffled row order; the point lies at up to about
    five box radii from the interior point."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    n_rows = draw(st.integers(1, 12))
    box = 10.0 ** draw(st.floats(4.5, 5.5))
    interior = rng.uniform(-0.5, 0.5, size=n) * box
    a = rng.normal(size=(n_rows, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n_rows, 1))
    slack = np.linalg.norm(a, axis=1) * rng.uniform(1e-3, 0.5, size=n_rows) * box
    rows, rhs = [a], [a @ interior + slack]
    for _ in range(draw(st.integers(0, 3))):
        i, factor = rng.integers(n_rows), 10.0 ** rng.uniform(-2.0, 2.0)
        rows.append(factor * a[i:i + 1])
        rhs.append(factor * rhs[0][i:i + 1])
    for _ in range(draw(st.integers(0, 3))):
        i, rel = rng.integers(n_rows), 10.0 ** draw(st.floats(-12.0, -6.0))
        near = a[i] * (1.0 + rel * rng.normal(size=n))
        rows.append(near[None, :])
        rhs.append(np.array([near @ interior + slack[i] * (1.0 + rel)]))
    a_full, b_full = with_box(np.vstack(rows), np.concatenate(rhs), n, box)
    order = rng.permutation(b_full.size)
    point = interior + 10.0 ** draw(st.floats(-2.0, 0.7)) * box * rng.normal(size=n)
    return point, a_full[order], b_full[order], interior


@st.composite
def missed_row_polyhedra(draw):
    """(point, A, b, x_star, active): a projection x_star built from its KKT
    conditions, point = x_star + sum_i mu_i a_i over the active rows, with
    one active row pointing against the others, so that its excess at the
    point can fall below minus the largest excess (outside the starting
    working set); plus inactive rows with slack at x_star, a box of radius
    about 1e5, mixed row scales and shuffled row order.  ``active`` flags the
    rows active at x_star."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 8))
    k = draw(st.integers(1, n - 2))
    box = 10.0 ** draw(st.floats(4.5, 5.5))
    ahead = rng.normal(size=(k, n))
    ahead /= np.linalg.norm(ahead, axis=1)[:, None]
    against = -ahead.sum(axis=0) + 0.3 * rng.normal(size=n) / np.sqrt(n)
    rows = np.vstack([ahead, against / np.linalg.norm(against)])
    mu = np.append(rng.uniform(0.5, 2.0, size=k), rng.uniform(0.05, 0.5))
    x_star = rng.uniform(-0.5, 0.5, size=n) * box
    move = mu @ rows * box * 10.0 ** draw(st.floats(-4.0, -0.5))
    n_inactive = draw(st.integers(0, 5))
    inactive = rng.normal(size=(n_inactive, n))
    inactive /= np.linalg.norm(inactive, axis=1)[:, None]
    slack = rng.uniform(0.01, 3.0, size=n_inactive) * np.linalg.norm(move)
    a_full, b_full = with_box(np.vstack([rows, inactive]),
                              np.concatenate([rows @ x_star, inactive @ x_star + slack]), n, box)
    row_scale = 10.0 ** rng.uniform(-3.0, 3.0, size=b_full.size)
    active = np.arange(b_full.size) <= k
    order = rng.permutation(b_full.size)
    return (x_star + move, (a_full * row_scale[:, None])[order], (b_full * row_scale)[order],
            x_star, active[order])


@st.composite
def growing_polyhedra(draw):
    """(points, A, b): box rows of radius about 1e5 first, then halfspaces of
    mixed row scale around an interior point with exact and nearly parallel
    copies among them, and one point per added halfspace.  Projection k sees
    the box and the first k halfspaces, as a bundle solve's level sets grow;
    each point is the previous point's projection under the cold solve,
    moved by up to about one box radius."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    n_rows = draw(st.integers(2, 14))
    box = 10.0 ** draw(st.floats(4.5, 5.5))
    interior = rng.uniform(-0.5, 0.5, size=n) * box
    a = rng.normal(size=(n_rows, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n_rows, 1))
    for i in range(1, n_rows):
        kind = rng.uniform()
        if kind < 0.15:
            a[i] = a[rng.integers(i)] * 10.0 ** rng.uniform(-2.0, 2.0)
        elif kind < 0.3:
            a[i] = a[rng.integers(i)] * (1.0 + 10.0 ** rng.uniform(-12.0, -6.0)
                                         * rng.normal(size=n))
    slack = np.linalg.norm(a, axis=1) * rng.uniform(1e-3, 0.5, size=n_rows) * box
    a_full, b_full = with_box(np.zeros((0, n)), np.zeros(0), n, box)
    a_full = np.vstack([a_full, a])
    b_full = np.concatenate([b_full, a @ interior + slack])
    moves = 10.0 ** rng.uniform(-3.0, 0.0, size=n_rows) * box
    steps = rng.normal(size=(n_rows, n))
    return moves, steps, a_full, b_full, 2 * n


def assert_projection_kkt(point, x, a_mat, b_vec):
    """Slack >= -feas_tol and stationarity with multipliers >= 0 on the rows
    active at x, to 1e-12 of max(1, |point|, |x|)."""
    norms = np.linalg.norm(a_mat, axis=1)
    a_unit, b_unit = a_mat / norms[:, None], b_vec / norms
    slack = b_unit - a_unit @ x
    scale = max(1.0, np.linalg.norm(point), np.linalg.norm(x))
    assert slack.min() >= -max(1e-12, 1e-14 * scale)
    active = slack <= 1e-9 * scale
    mu = (lsq_linear(a_unit[active].T, point - x, bounds=(0.0, np.inf), method="bvls").x
          if active.any() else np.zeros(0))
    assert np.linalg.norm(point - x - a_unit[active].T @ mu) <= 1e-12 * scale


def lp_vertex_oracle(offsets, slopes, box):
    """Enumerate vertices of the epigraph LP in dimension <= 3."""
    n_cuts, n = slopes.shape
    # constraint rows in (x, r) space: [slope, -1].(x, r) <= -offset, plus box
    rows = [np.append(slopes[i], -1.0) for i in range(n_cuts)]
    rhs = [-offsets[i] for i in range(n_cuts)]
    for j in range(n):
        e = np.zeros(n + 1)
        e[j] = 1.0
        rows.append(e.copy())
        rhs.append(box)
        rows.append(-e)
        rhs.append(box)
    rows = np.array(rows)
    rhs = np.array(rhs)
    best_val, best_x = np.inf, None
    from itertools import combinations
    for combo in combinations(range(len(rows)), n + 1):
        a = rows[list(combo)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        z = np.linalg.solve(a, rhs[list(combo)])
        if np.all(rows @ z <= rhs + 1e-9) and z[-1] < best_val:
            best_val, best_x = z[-1], z[:n]
    return best_val, best_x


@st.composite
def lp_pieces(draw):
    """(offsets, slopes, box): up to seven affine pieces in one to three
    dimensions, with mixed scales, some exact copies and some zero slope
    entries (degenerate vertices), over a box of radius 0.1 to 10."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    n_pieces = draw(st.integers(1, 5))
    box = 10.0 ** draw(st.floats(-1.0, 1.0))
    slopes = rng.normal(size=(n_pieces, n)) * 10.0 ** rng.uniform(-1.0, 1.0, size=(n_pieces, 1))
    slopes[rng.uniform(size=slopes.shape) < draw(st.floats(0.0, 0.3))] = 0.0
    offsets = rng.normal(size=n_pieces) * 10.0 ** draw(st.floats(-1.0, 1.0))
    copies = rng.integers(n_pieces, size=draw(st.integers(0, 2)))
    return (np.concatenate([offsets, offsets[copies]]), np.vstack([slopes, slopes[copies]]),
            box)


class TestSvd:
    def test_identity(self):
        _, s, _ = svd(np.eye(3))
        np.testing.assert_allclose(s, [1.0, 1.0, 1.0], rtol=1e-14)

    def test_diagonal(self):
        _, s, _ = svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 2.0, 1.0], rtol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(21, 3))
        u, s, v = svd(mat)
        err = np.linalg.norm(u @ np.diag(s) @ v.T - mat)
        assert err <= 1e-10 * np.linalg.norm(mat)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


class TestLeastSquares:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        x = least_squares(np.eye(3), b)
        np.testing.assert_allclose(x, b, rtol=1e-14)

    def test_consistent_overdetermined(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(10, 3))
        x_true = rng.normal(size=3)
        x = least_squares(a, a @ x_true)
        np.testing.assert_allclose(x, x_true, rtol=1e-10)

    def test_against_normal_equations(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(21, 3))
        b = rng.normal(size=21)
        x = least_squares(a, b)
        x_ref = np.linalg.solve(a.T @ a, a.T @ b)
        np.testing.assert_allclose(x, x_ref, atol=1e-8)

    def test_rank_deficiency(self):
        a = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(RankDeficientError):
            least_squares(a, np.ones(5))

    def test_rank_rule_absolute_below_unit_norm(self):
        # sigma_max < 1: sigma_min at 1e-12 is rejected although it is not
        # below 1e-12 * sigma_max
        a = np.vstack([np.diag([0.5, 1e-12]), np.zeros((2, 2))])
        with pytest.raises(RankDeficientError):
            least_squares(a, np.ones(4))
        x = least_squares(np.vstack([np.diag([0.5, 2e-12]), np.zeros((2, 2))]), np.ones(4))
        np.testing.assert_allclose(x, [2.0, 5e11], rtol=1e-12)

    def test_rank_rule_relative_above_unit_norm(self):
        # sigma_max = 1e6: sigma_min = 1e-7 passes the absolute test but
        # not the relative one
        a = np.vstack([np.diag([1e6, 1e-7]), np.zeros((2, 2))])
        with pytest.raises(RankDeficientError):
            least_squares(a, np.ones(4))
        x = least_squares(np.vstack([np.diag([1e6, 1e-5]), np.zeros((2, 2))]), np.ones(4))
        np.testing.assert_allclose(x, [1e-6, 1e5], rtol=1e-12)

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            least_squares(np.ones((2, 3)), np.ones(2))


class TestProjection:
    def test_interior_point_unchanged(self):
        p = np.array([0.5, -0.5, 0.2])
        out = project_polyhedron(p, *with_box(np.zeros((0, 3)), np.zeros(0), 3, 10.0),
                                 WarmStart())
        np.testing.assert_allclose(out, p, atol=1e-14)

    def test_single_halfspace_closed_form(self):
        # {x : x_0 <= 0} inside a wide box; projection zeroes the first coord
        p = np.array([2.0, 0.3, -0.4])
        a = np.array([[1.0, 0.0, 0.0]])
        out = project_polyhedron(p, *with_box(a, np.array([0.0]), 3, 10.0), WarmStart())
        np.testing.assert_allclose(out, [0.0, 0.3, -0.4], atol=1e-12)

    def test_takes_the_level_set_over(self):
        # the caller's rows and bounds are normalized where they are: unit
        # rows, each bound divided by its row's norm, and no second copy
        rng = np.random.default_rng(11)
        a, b = feasible_instance(rng, 5, 3, box=10.0)
        scales = rng.uniform(0.01, 100.0, size=5)
        a_mat, b_vec = with_box(a * scales[:, None], b * scales, 3, 10.0)
        norms = np.linalg.norm(a_mat, axis=1)
        scaled = b_vec / norms
        assert not np.allclose(norms, 1.0)
        project_polyhedron(rng.normal(size=3) * 30.0, a_mat, b_vec, WarmStart())
        np.testing.assert_allclose(np.linalg.norm(a_mat, axis=1), 1.0, rtol=1e-15)
        np.testing.assert_allclose(b_vec, scaled, rtol=1e-15)

    def test_against_penalty_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b = feasible_instance(rng, 5, 3, box=10.0)
            p = rng.normal(size=3) * 3.0
            a_full, b_full = with_box(a, b, 3, 10.0)
            out = project_polyhedron(p, a_full, b_full, WarmStart())
            ref = penalty_projection_oracle(p, a_full, b_full)
            assert np.linalg.norm(out - ref) <= 1e-5

    def test_kkt_residuals(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a, b = feasible_instance(rng, 6, 4, box=5.0)
            p = rng.normal(size=4) * 2.0
            eye = np.eye(4)
            a_full = np.vstack([a, eye, -eye])
            b_full = np.concatenate([b, np.full(8, 5.0)])
            x = project_polyhedron(p, a_full, b_full, WarmStart())
            slack = b_full - a_full @ x
            assert slack.min() >= -1e-10
            active = slack <= 1e-8
            if np.any(active):
                aw = a_full[active]
                mu, *_ = np.linalg.lstsq(aw.T, p - x, rcond=None)[:2]
                # stationarity and sign conditions
                assert np.linalg.norm(x - p + aw.T @ mu) <= 1e-10
                assert mu.min() >= -1e-8
            else:
                assert np.linalg.norm(x - p) <= 1e-10

    def test_idempotence(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = feasible_instance(rng, 5, 3, box=8.0)
            p = rng.normal(size=3) * 4.0
            once = project_polyhedron(p, *with_box(a, b, 3, 8.0), WarmStart())
            twice = project_polyhedron(once, *with_box(a, b, 3, 8.0), WarmStart())
            assert np.linalg.norm(once - twice) <= 1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(6)
        a_full, b_full = with_box(*feasible_instance(rng, 5, 3, box=8.0), 3, 8.0)
        for _ in range(20):
            p, q = rng.normal(size=3) * 3, rng.normal(size=3) * 3
            px = project_polyhedron(p, a_full, b_full, WarmStart())
            qx = project_polyhedron(q, a_full, b_full, WarmStart())
            assert np.linalg.norm(px - qx) <= np.linalg.norm(p - q) + 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scaled_polyhedra())
    def test_kkt_on_scaled_and_duplicated_rows(self, instance):
        point, a_full, b_full, interior = instance
        x = project_polyhedron(point, a_full, b_full, WarmStart())
        norms = np.linalg.norm(a_full, axis=1)
        a_unit, b_unit = a_full / norms[:, None], b_full / norms
        slack = b_unit - a_unit @ x
        assert slack.min() >= -max(1e-12, 1e-14 * np.linalg.norm(point))
        # stationarity with multipliers >= 0 on the rows active at x
        scale = max(1.0, np.linalg.norm(point), np.linalg.norm(x))
        active = slack <= 1e-9 * scale
        mu = (lsq_linear(a_unit[active].T, point - x, bounds=(0.0, np.inf), method="bvls").x
              if active.any() else np.zeros(0))
        assert np.linalg.norm(point - x - a_unit[active].T @ mu) <= 1e-12 * scale
        inside = project_polyhedron(interior, a_full, b_full, WarmStart())
        assert np.array_equal(inside, interior) and inside is not interior

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(missed_row_polyhedra())
    def test_working_set_matches_full_row_oracle(self, instance):
        point, a_full, b_full, x_star, active = instance
        norms = np.linalg.norm(a_full, axis=1)
        excess = (a_full @ point - b_full) / norms
        # the rows within one largest-violation distance of the point, which
        # the working set starts from, leave out a row active at x_star
        assume(np.any(active & (excess < -excess.max())))
        x = project_polyhedron(point, a_full, b_full, WarmStart())
        scale = max(1.0, np.linalg.norm(point))
        assert np.linalg.norm(x - full_row_projection(point, a_full, b_full)) <= 1e-12 * scale
        assert np.linalg.norm(x - x_star) <= 1e-12 * scale

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(growing_polyhedra())
    def test_warm_start_matches_cold_and_full_row_oracle(self, instance):
        # rows appended one at a time, each projection warm-started from the
        # previous one's rows: the same point as a cold solve and as the
        # full-row reference, satisfying the KKT conditions
        moves, steps, a_full, b_full, n_box = instance
        warm = WarmStart()
        point = np.zeros(steps.shape[1])
        for k, (move, step) in enumerate(zip(moves, steps), start=1):
            a_k, b_k = a_full[:n_box + k], b_full[:n_box + k]
            point = point + move * step / np.linalg.norm(step)
            x_warm = project_polyhedron(point, a_k, b_k, warm)
            x_cold = project_polyhedron(point, a_k, b_k, WarmStart())
            scale = max(1.0, np.linalg.norm(point))
            assert np.linalg.norm(x_warm - x_cold) <= 1e-12 * scale
            assert np.linalg.norm(x_warm - full_row_projection(point, a_k, b_k)) <= 1e-12 * scale
            assert_projection_kkt(point, x_warm, a_k, b_k)
            assert np.all(warm.multipliers > 0.0) and warm.rows.size == warm.multipliers.size
            point = x_cold

    def test_nnls_iteration_limit_is_no_convergence(self, monkeypatch):
        # {x_0 <= 0, x_1 <= 0}: the NNLS starts from the most violated row
        # alone and must add the other one
        monkeypatch.setattr(numerics, "NNLS_STEPS_PER_ROW", 0)
        a_full, b_full = with_box(np.eye(2), np.zeros(2), 2, 10.0)
        with pytest.raises(NoConvergenceError):
            project_polyhedron(np.array([2.0, 3.0]), a_full, b_full, WarmStart())
        # a point already inside never reaches the solver
        np.testing.assert_array_equal(project_polyhedron(np.array([-2.0, -0.3]), a_full, b_full,
                                                         WarmStart()),
                                      [-2.0, -0.3])
        monkeypatch.setattr(numerics, "NNLS_STEPS_PER_ROW", 3)
        np.testing.assert_allclose(project_polyhedron(np.array([2.0, 3.0]), a_full, b_full,
                                                      WarmStart()),
                                   [0.0, 0.0], atol=1e-14)

    def test_zero_rows(self):
        # a zero row keeps its place (warm starts index the rows) and holds
        # everywhere with b >= 0, nowhere with b < 0
        a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        warm = WarmStart()
        x = project_polyhedron(np.array([1.0, 2.0]), a, np.array([0.0, 1.0, 0.0]), warm)
        np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-14)
        assert 1 not in warm.rows.tolist()
        with pytest.raises(InfeasibleError):
            project_polyhedron(np.array([1.0, 2.0]), a, np.array([0.0, -1.0, 0.0]), WarmStart())

    def test_infeasible_detected(self):
        # x >= 1 and x <= -1 simultaneously
        a = np.array([[1.0], [-1.0]])
        b = np.array([-1.0, -1.0])
        with pytest.raises(InfeasibleError):
            project_polyhedron(np.array([0.0]), a, b, WarmStart())


class TestLpMin:
    """The epigraph LP min over the box of a max of affine pieces, as
    ``solver.CutModel.minima`` solves it: one LP row per piece."""

    def test_single_piece_closed_form(self):
        slope = np.array([[1.5, -2.0, 0.5]])
        offset = np.array([3.0])
        value, argmin = lp_minimum(offset, slope, box_radius=1.0)
        assert value == pytest.approx(3.0 - np.abs(slope).sum(), abs=1e-10)
        np.testing.assert_allclose(argmin, -np.sign(slope[0]), atol=1e-10)

    def test_duplicate_pieces(self):
        slope = np.array([[1.5, -2.0, 0.5]])
        offset = np.array([3.0])
        v1, x1 = lp_minimum(offset, slope, 1.0)
        v2, x2 = lp_minimum(np.concatenate([offset, offset]),
                            np.vstack([slope, slope]), 1.0)
        assert v1 == pytest.approx(v2, abs=1e-12)
        np.testing.assert_allclose(x1, x2, atol=1e-10)

    def test_against_vertex_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            slopes = rng.normal(size=(6, 3))
            offsets = rng.normal(size=6)
            value, argmin = lp_minimum(offsets, slopes, box_radius=1.0)
            ref_val, _ = lp_vertex_oracle(offsets, slopes, 1.0)
            assert value == pytest.approx(ref_val, abs=1e-10)
            # the argmin must achieve the value
            achieved = np.max(offsets + slopes @ argmin)
            assert achieved == pytest.approx(value, abs=1e-9)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(lp_pieces())
    @example((np.array([-0.73226735, -0.54425898, -0.31630016, 0.41163054, 1.04251337]),
              np.array([[0.84129989], [0.0], [1.84272194], [0.0], [-3.97229656]]), 1.0))
    def test_warm_started_prefixes_against_vertex_enumeration(self, data):
        # pieces added one at a time, each prefix solved from the basis the
        # previous one left, as the bundle solve does.  In the example the
        # fourth piece repeats the second's plane, 0.96 higher, while the
        # second is a basis row: the minimum moves from -0.544259 to 0.411631
        offsets, slopes, box = data
        model = CutModel(1, slopes.shape[1], box, len(slopes))
        for k, (offset, slope) in enumerate(zip(offsets, slopes), start=1):
            add_cut(model, Cut(np.zeros(slope.size), float(offset), slope))
            value, argmin = model.minima()[0], lp_argmin(model)
            ref_val, _ = lp_vertex_oracle(offsets[:k], slopes[:k], box)
            scale = max(1.0, np.abs(offsets[:k]).max()
                        + box * np.abs(slopes[:k]).sum(axis=1).max())
            assert value == pytest.approx(ref_val, abs=1e-12 * scale)
            assert np.abs(argmin).max() <= box * (1.0 + 1e-12)
            assert np.max(offsets[:k] + slopes[:k] @ argmin) == pytest.approx(
                value, abs=1e-12 * scale)

    def test_degenerate_pivot_keeps_the_basis_regular(self):
        # pieces added one at a time: at the fourth, the direction has a
        # round-off entry on a basis row with a zero multiplier, and that
        # row leaving would make the next basis singular (one of three such
        # instances in 40,000 drawn like lp_pieces)
        offsets = np.array([-0.1711412054181293, -0.7092322971800362, -0.49496592383835747,
                            -0.1996029875742229, -0.2061445032823704, -0.1711412054181293])
        slopes = np.array([[0.0, -0.616271760907752], [1.5496463826580815, 2.6060495329781754],
                           [2.3112210415221317, 0.0], [0.0, 6.6538212643136685],
                           [-0.1321437171546007, 0.15690672707852163], [0.0, -0.616271760907752]])
        box = 0.162027844180569
        model = CutModel(1, 2, box, len(slopes))
        for k, (offset, slope) in enumerate(zip(offsets, slopes), start=1):
            add_cut(model, Cut(np.zeros(2), float(offset), slope))
            value, argmin = model.minima()[0], lp_argmin(model)
            ref_val, _ = lp_vertex_oracle(offsets[:k], slopes[:k], box)
            assert value == pytest.approx(ref_val, abs=1e-12)
            assert np.max(offsets[:k] + slopes[:k] @ argmin) == pytest.approx(value, abs=1e-12)

    def test_value_minorizes_feasible_points(self):
        rng = np.random.default_rng(8)
        slopes = rng.normal(size=(5, 3))
        offsets = rng.normal(size=5)
        value, _ = lp_minimum(offsets, slopes, box_radius=2.0)
        pts = rng.uniform(-2.0, 2.0, size=(100, 3))
        vals = (offsets[None, :] + pts @ slopes.T).max(axis=1)
        assert np.all(value <= vals + 1e-10)

    def test_needs_a_piece(self):
        # with no piece the epigraph variable is unbounded below
        with pytest.raises(NoConvergenceError):
            lp_minimum(np.empty(0), np.empty((0, 3)), 1.0)
