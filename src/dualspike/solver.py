"""Exact-penalty objective for the box-constrained dual program and the
level bundle method that minimizes it.

The objective is Psi(lam) = -y.lam + penalty * max(sup_t q_lam(t) - 1, 0)
over the box |lam|_inf <= box_radius.  Each iteration adds one cutting
plane, re-solves the polyhedral model over the box for a lower bound (a
dual simplex warm-started from the previous basis, its basis systems
solved by ``numpy.linalg.solve``), and projects the previous iterate onto
a level set interpolated between the best value seen and the model
minimum (a least-distance NNLS warm-started from the previous
projection's active rows).

One bundle loop (``solve_batch``) advances a batch of problems that share
grid, kernel, penalty and box in lockstep: per iteration, one batched
certificate supremum and one round-based LP serve every problem still
running, and each problem keeps its own cuts, model, projection and exit.
Stacked products and solves give each problem the bits of its own, so a
problem's result does not depend on its batch; ``solve`` is the batch of
one.  A solve returns a record of its run that holds no row of its LP:
``BundleState.cuts`` evaluates the oracle again at the anchors.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .certificate import CertificateGrid
from .errors import InfeasibleError, LevelSetEmptyError, NoConvergenceError
from .kernel import Kernel
from .model import MeasurementSet, build_phi

ACTIVE_SUP_TOL = 1e-12
DEFAULT_GAP_TOL = 1e-12
# a cut-model row counts as violated above this, relative to max(1, |h|);
# at 1e-9 the solves stop where the maxima of a certificate miss a 1e-9
# stationarity test
LP_ROW_TOL = 1e-10
# pivots allowed per basis row and LP: a noise sweep needs up to 21 for
# one LP, about 1.2 on average
LP_PIVOTS_PER_ROW = 50
# a basis row can leave only where the pivot direction exceeds this,
# relative to its largest entry: a round-off entry of a zero would make
# the next basis singular
LP_PIVOT_TOL = 1e-12
# cut rows a new CutModel has room for; the room doubles whenever it fills
CUT_BLOCK = 64
# the level method's parameter: each level lies this fraction of the gap
# above the lower bound
LEVEL_MIX = 0.25


@dataclass(frozen=True)
class PenaltyProblem:
    """Measurements plus the penalty weight and box radius of the dual."""

    measurements: MeasurementSet
    kernel: Kernel
    penalty: float
    box_radius: float

    def __post_init__(self):
        if not self.penalty > 0:
            raise ValueError("penalty must be positive")
        if not self.box_radius > 0:
            raise ValueError("box_radius must be positive")


@dataclass(frozen=True)
class Cut:
    """One cutting plane: value + slope.(lam - anchor) minorizes the objective."""

    anchor: np.ndarray
    value: float
    slope: np.ndarray


@dataclass
class BundleState:
    """The record of one solve: its problem, the final iterate and the
    per-iteration history (bounds, level, gap and the projected iterate);
    ``cuts`` evaluates the solve's cuts again when first asked."""

    problem: PenaltyProblem
    iterate: np.ndarray
    upper_bound: float = np.inf
    lower_bound: float = -np.inf
    gap_history: list[float] = field(default_factory=list)
    upper_history: list[float] = field(default_factory=list)
    lower_history: list[float] = field(default_factory=list)
    level_history: list[float] = field(default_factory=list)
    iterate_history: list[np.ndarray] = field(default_factory=list)

    @property
    def n_iterations(self):
        return len(self.gap_history)

    @functools.cached_property
    def cuts(self):
        """The cuts in the order they were added: cut k is anchored at the
        zero start (k = 0) or at iterate k of the history.  One oracle call
        on the anchors gives each cut the bits the solve gave it."""
        if not self.iterate_history:
            return []
        problem = self.problem
        anchors = np.array([np.zeros_like(self.iterate), *self.iterate_history[:-1]])
        ys = np.repeat(problem.measurements.y[None], len(anchors), axis=0)
        values, slopes, _ = _oracle(problem.penalty, ys, anchors,
                                    CertificateGrid(problem.measurements.grid, problem.kernel))
        return [Cut(*cut) for cut in zip(anchors, values.tolist(), slopes)]


def _oracle(penalty, ys, weights, cert_grid: CertificateGrid):
    """Objective values, subgradients and active locations (NaN where the
    penalty is inactive) at each row of ``weights``, the data ``ys`` row by
    row; one batched supremum serves every row."""
    t_star, sup_val = cert_grid.supremum(weights)
    # row dot products, with the bits of a 1-D y @ weights
    values = -np.matmul(ys[:, None, :], weights[:, :, None])[:, 0, 0]
    values += penalty * np.maximum(sup_val - 1.0, 0.0)
    slopes = -ys
    active = sup_val >= 1.0 - ACTIVE_SUP_TOL
    columns = build_phi(cert_grid.grid, cert_grid.kernel, t_star[active]).T
    slopes[active] += penalty * columns
    return values, slopes, np.where(active, t_star, np.nan)


def penalty_objective(problem: PenaltyProblem, weights) -> float:
    """Psi at one dual vector."""
    weights = np.asarray(weights, dtype=float)
    grid = CertificateGrid(problem.measurements.grid, problem.kernel)
    return float(_oracle(problem.penalty, problem.measurements.y[None], weights[None], grid)[0][0])


class CutModel:
    """The polyhedral models max_i (offsets_i + slopes_i . lam) over the box
    of a lockstep batch: one model per point, with as many cuts each.

    Holds, for point p, the epigraph LP min t s.t. G z <= h over
    z = (lam, t) in ``_rows[p]`` and ``_rhs[p]``, one block for all points
    with room for ``CUT_BLOCK`` cuts, doubled whenever it fills: first the
    2n box rows +-e_j with h = box_radius, then one row [slopes_i, -1] with
    h = -offsets_i per cut.  ``minima`` solves each LP by the dual simplex
    method on a basis of n + 1 rows B, kept with multipliers y >= 0 such
    that e_t + G_B^T y = 0 (dual feasible) and with its vertex
    z = G_B^-1 h_B.  Each pivot solves two systems with G_B by
    ``numpy.linalg.solve`` (an LU each); no inverse is updated.  The first
    cut sets the basis in closed form; every later cut starts from the
    previous optimal basis, so a cut the vertex already satisfies costs
    one product with G.

    Rows are only ever appended, so a row keeps its index in every
    ``level_set``; ``warm[p]`` is the ``numerics.WarmStart`` that carries
    point p's level-set projection's active rows into its next one.
    ``keep`` drops the points that left the batch.
    """

    def __init__(self, points, n, box_radius):
        self.box_radius = box_radius
        self.size = 0
        self._n_box = 2 * n
        self._rows = np.zeros((points, 2 * n + CUT_BLOCK, n + 1))
        self._rhs = np.empty((points, 2 * n + CUT_BLOCK))
        self._rows[:, :n, :n] = np.eye(n)
        self._rows[:, n:2 * n, :n] = -np.eye(n)
        self._rhs[:, :2 * n] = box_radius
        self._basis = None
        self._mult = None
        self._vertex = None
        self.warm = [numerics.WarmStart() for _ in range(points)]

    def level_set(self, point, level):
        """(A, b) with {lam : A lam <= b} = {model <= level} for one point:
        the box rows and then the cuts in the order they were added, as a
        view of the model's rows with b = h - level * (last column)."""
        rows = self._rows[point, :self._n_box + self.size]
        return rows[:, :-1], self._rhs[point, :rows.shape[0]] - level * rows[:, -1]

    def add(self, anchors, values, slopes):
        """Append one cut per point: value + slope.(lam - anchor), from the
        rows of ``anchors`` and ``slopes`` and the entries of ``values``."""
        row = self._n_box + self.size
        if row == self._rhs.shape[1]:
            # no room left: double the cut block
            self._rows = np.concatenate(
                [self._rows, np.zeros_like(self._rows[:, self._n_box:])], axis=1)
            self._rhs = np.concatenate([self._rhs, np.empty_like(self._rhs[:, self._n_box:])],
                                       axis=1)
        self._rows[:, row, :-1] = slopes
        self._rows[:, row, -1] = -1.0
        # row dot products, with the bits of a 1-D slope @ anchor
        self._rhs[:, row] = np.matmul(slopes[:, None, :], anchors[:, :, None])[:, 0, 0]
        self._rhs[:, row] -= values
        self.size += 1
        if self._basis is None:
            # the one cut's minimum over the box: lam_j on its lower bound
            # where slope_j > 0 and on its upper bound elsewhere, the bound
            # rows weighted |slope_j| and the cut 1
            points, n = slopes.shape
            self._basis = np.column_stack(
                (np.where(slopes > 0.0, n + np.arange(n), np.arange(n)), np.full(points, row)))
            self._mult = np.column_stack((np.abs(slopes), np.ones(points)))
            each = np.arange(points)[:, None]
            self._vertex = _basis_solve(self.size, self._rows[each, self._basis],
                                        self._rhs[each, self._basis])

    def keep(self, points):
        """Keep only the models of ``points`` (indices, in order)."""
        self._rows, self._rhs = self._rows[points], self._rhs[points]
        self._basis, self._mult, self._vertex = (
            self._basis[points], self._mult[points], self._vertex[points])
        self.warm = [self.warm[p] for p in points]

    def minima(self):
        """(value, argmin) of each point's model over the box.

        Dual simplex from each point's current basis: while a row is
        violated by more than ``LP_ROW_TOL`` relative to max(1, |h|), the
        most violated one enters the basis and the row that the ratio test
        picks (lowest row index on ties) leaves it; the vertex is then
        solved afresh.  The points pivot in rounds: one stacked check of
        every model (``np.matmul`` on the row block), then stacked
        ``numpy.linalg.solve`` calls for the points with a violated row.
        Each point's arithmetic is the same whatever points share a round.
        The value is the objective of a dual feasible basis, sum_i mu_i
        offsets_i - box_radius |slopes^T mu|_1 with mu the cut
        multipliers, so it bounds the model minimum from below up to
        round-off.  Raises NoConvergenceError, naming the cut count, when
        there is no cut, when a basis is singular, when no basis row of a
        point can leave (its LP would be infeasible) or after
        ``LP_PIVOTS_PER_ROW`` pivots per basis row of one LP.  A row leaves
        only where the direction exceeds ``LP_PIVOT_TOL`` of its largest
        entry.
        """
        size = self.size
        if size == 0:
            raise NoConvergenceError("cut model LP (0 cuts): the model is unbounded below")
        n_rows = self._n_box + size
        rows, rhs = self._rows[:, :n_rows], self._rhs[:, :n_rows]
        row_scale = np.maximum(1.0, np.abs(rhs))
        basis, mult, vertex = self._basis, self._mult, self._vertex
        each = np.arange(basis.shape[0])[:, None]
        max_pivots = LP_PIVOTS_PER_ROW * basis.shape[1]
        for pivots in range(max_pivots + 1):
            # every point's check in one product: a point that is done
            # shows the same excess again
            excess = np.matmul(rows, vertex[:, :, None])[:, :, 0]
            excess -= rhs
            excess /= row_scale
            # basis rows hold with equality; what they show is round-off
            excess[each, basis] = 0.0
            pending = (excess.max(1) > LP_ROW_TOL).nonzero()[0]
            if not pending.size:
                break
            if pivots == max_pivots:
                raise NoConvergenceError(
                    f"cut model LP ({size} cuts): no optimal basis after {max_pivots} pivots")
            entering = excess[pending].argmax(1)
            direction = _basis_solve(
                size, rows[pending[:, None], basis[pending]].transpose(0, 2, 1),
                rows[pending, entering])
            for p, d, row in zip(pending.tolist(), direction, entering.tolist()):
                can_leave = (d > LP_PIVOT_TOL * abs(d).max()).nonzero()[0]
                if can_leave.size == 0:
                    raise NoConvergenceError(
                        f"cut model LP ({size} cuts): no basis row can leave")
                b, mu = basis[p], mult[p]
                ratios = mu[can_leave] / d[can_leave]
                tied = can_leave[ratios == ratios.min()]
                leaving = tied[np.argmin(b[tied])]
                step = mu[leaving] / d[leaving]
                np.maximum(mu - step * d, 0.0, out=mu)
                mu[leaving] = step
                b[leaving] = row
            held = basis[pending]
            vertex[pending] = _basis_solve(size, rows[pending[:, None], held],
                                           rhs[pending[:, None], held])
        return [(float(v[-1]), v[:-1].copy()) for v in vertex]


def _basis_solve(size, matrix, rhs):
    """``numpy.linalg.solve`` on one basis system or a stack of them;
    NoConvergenceError, naming the cut count, when a basis is singular."""
    try:
        return np.linalg.solve(matrix, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise NoConvergenceError(f"cut model LP ({size} cuts): singular basis") from None


def model_value(cuts, weights):
    """The polyhedral model of a list of cuts evaluated at one point."""
    values = np.array([c.value for c in cuts])
    slopes = np.array([c.slope for c in cuts])
    anchors = np.array([c.anchor for c in cuts])
    return float(np.max(values + slopes @ np.asarray(weights, dtype=float)
                        - np.einsum("ij,ij->i", slopes, anchors)))


def project_to_level(model, point, level, x, minimum):
    """Euclidean projection of ``x`` onto {model <= level} of one point of
    the batch, clipped to the box.

    ``model`` is a ``CutModel``, ``point`` the index of the model in it and
    ``minimum`` that model's (value, argmin); the projection starts from
    the rows the point's previous projection ended on.  When the set is
    numerically too thin to project onto, the model argmin (which attains
    the model minimum and therefore lies in any level set with level >=
    model minimum) is returned instead.  A level strictly below the model
    minimum raises LevelSetEmptyError.
    """
    x = np.asarray(x, dtype=float)
    a_mat, b_vec = model.level_set(point, level)
    try:
        projected = numerics.project_polyhedron(x, a_mat, b_vec, warm=model.warm[point])
    except (InfeasibleError, NoConvergenceError):
        # level set thinner than double precision resolves: the model
        # argmin is the limit of the projections
        nu, projected = minimum
        if level < nu - 1e-9:
            raise LevelSetEmptyError(
                f"level {level} is below the model minimum {nu}") from None
    return np.clip(projected, -model.box_radius, model.box_radius)


def solve(problem: PenaltyProblem, max_iters: int) -> BundleState:
    """The level bundle method on one problem: ``solve_batch`` on a batch
    of one."""
    return solve_batch([problem], max_iters)[0]


def solve_batch(problems, max_iters: int):
    """Run the level bundle method from the zero vector on each problem,
    all in lockstep; returns one ``BundleState`` per problem.

    The problems share grid, kernel, penalty and box (ValueError
    otherwise); they differ in their data y.  Per iteration, for each
    problem still running: evaluate the objective and a subgradient at the
    current iterate, append the cut, refresh the model minimum (lower
    bound) and best value seen (upper bound), then project the iterate onto
    the set {model <= LEVEL_MIX * upper + (1 - LEVEL_MIX) * lower} inside
    the box.  Every projected iterate is kept in ``iterate_history``.  One
    batched oracle call (``CertificateGrid.supremum``) and one
    ``CutModel`` serve all running problems; each keeps its own cut rows,
    LP basis, projection warm start and exit, and its arithmetic does not
    depend on the others, so a problem's result is the same bit for bit in
    any batch.  The returned states share no memory with the model.

    A problem stops when its projected iterate equals the previous one bit
    for bit: the next oracle call would return the last cut again, so the
    model, both bounds, the level and the projection would all repeat.  It
    also stops when its gap drops to ``DEFAULT_GAP_TOL``; ``max_iters`` is
    an upper bound.  The lower bound is the model minimum as the objective
    of a dual feasible basis of the cut-model LP, warm-started from the
    previous iteration's basis; when an LP fails (see ``CutModel.minima``),
    the solve stops with NoConvergenceError, which the command line reports
    with exit code 3.  Each projection starts from the rows the previous
    one ended on (``CutModel.warm``).
    """
    first = problems[0]
    grid, kernel = first.measurements.grid, first.kernel
    for other in problems[1:]:
        if not (np.array_equal(other.measurements.grid.samples, grid.samples)
                and other.kernel == kernel and other.penalty == first.penalty
                and other.box_radius == first.box_radius):
            raise ValueError("a batch shares grid, kernel, penalty and box_radius")
    m = grid.n_samples
    cert_grid = CertificateGrid(grid, kernel)
    ys = np.array([problem.measurements.y for problem in problems])
    states = [BundleState(problem, np.zeros(m)) for problem in problems]
    model = CutModel(len(problems), m, first.box_radius)
    # the problem behind each point of the model, and its data
    running = list(range(len(problems)))
    for _ in range(max_iters):
        if not running:
            break
        iterates = np.array([states[i].iterate for i in running])
        cut_values, slopes, _ = _oracle(first.penalty, ys, iterates, cert_grid)
        model.add(iterates, cut_values, slopes)
        minima = model.minima()
        going = []
        for point, (i, value, minimum) in enumerate(zip(running, cut_values.tolist(), minima)):
            state = states[i]
            state.upper_bound = min(state.upper_bound, value)
            # the running max keeps the gap history monotone
            state.lower_bound = max(state.lower_bound, minimum[0])
            gap = state.upper_bound - state.lower_bound
            level = LEVEL_MIX * state.upper_bound + (1.0 - LEVEL_MIX) * state.lower_bound
            previous = state.iterate
            state.iterate = project_to_level(model, point, level, previous, minimum)
            state.upper_history.append(state.upper_bound)
            state.lower_history.append(state.lower_bound)
            state.level_history.append(level)
            state.gap_history.append(gap)
            state.iterate_history.append(state.iterate)
            if not (gap <= DEFAULT_GAP_TOL or np.array_equal(state.iterate, previous)):
                going.append(point)
        if len(going) < len(running):
            model.keep(going)
            ys = ys[going]
            running = [running[point] for point in going]
    return states
