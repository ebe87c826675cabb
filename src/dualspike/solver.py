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
running, and each problem keeps its own cuts, model, projection and exit;
the model holds the box rows once for the batch.
Stacked products and solves give each problem the bits of its own, so a
problem's result does not depend on its batch; ``solve`` is the batch of
one.  A solve returns a record of its run that holds no row of its LP:
``BundleState.cuts`` evaluates the oracle again at the anchors.
"""

import functools

import numpy as np

from . import numerics
from .certificate import CertificateGrid
from .errors import InfeasibleError, LevelSetEmptyError, NoConvergenceError
from .kernel import Kernel
from .model import MeasurementSet, build_phi

ACTIVE_SUP_TOL = 1e-12
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
# cut rows a new CutModel, and iterate rows a new BundleState, has room
# for; the room doubles whenever it fills, never past the solve's max_iters
CUT_BLOCK = 64
# the level method's parameter: each level lies this fraction of the gap
# above the lower bound
LEVEL_MIX = 0.25


class PenaltyProblem:
    """Measurements plus the penalty weight and box radius of the dual."""

    def __init__(self, measurements: MeasurementSet, kernel: Kernel, penalty, box_radius):
        if not penalty > 0:
            raise ValueError("penalty must be positive")
        if not box_radius > 0:
            raise ValueError("box_radius must be positive")
        self.measurements, self.kernel = measurements, kernel
        self.penalty, self.box_radius = penalty, box_radius


class Cut:
    """One cutting plane: value + slope.(lam - anchor) minorizes the objective."""

    def __init__(self, anchor, value, slope):
        self.anchor, self.value, self.slope = anchor, value, slope


class BundleState:
    """The record of one solve: its problem, the final iterate and, per
    iteration, the two bounds and the projected iterate.  The gap and level
    histories are derived from the bounds on access, by the solve's own
    formulas on the same floats.  The iterates are the rows of one block
    whose room doubles whenever it fills, never past the solve's
    ``max_iters``; ``iterate`` is its newest row (the zero start before the
    first iteration).  ``cuts`` evaluates the solve's cuts again when first
    asked.  A state solved without history (``solve_batch(...,
    history=False)``) holds only the final iterate and both final bounds:
    ``n_iterations`` is 0, and the histories, ``iterate_history`` and
    ``cuts`` are empty."""

    def __init__(self, problem: PenaltyProblem, iterate):
        self.problem, self.iterate = problem, iterate
        self.upper_bound, self.lower_bound = np.inf, -np.inf
        self.upper_history, self.lower_history = [], []
        self._iterates = np.empty((0, iterate.size))

    @property
    def n_iterations(self):
        return len(self.upper_history)

    @property
    def gap_history(self):
        return [upper - lower for upper, lower in zip(self.upper_history, self.lower_history)]

    @property
    def level_history(self):
        return [_level(upper, lower) for upper, lower in zip(self.upper_history, self.lower_history)]

    @property
    def iterate_history(self):
        """The projected iterates, a list of rows of the block."""
        return list(self._iterates[:self.n_iterations])

    def _record(self, iterate, max_iters):
        """Append one iteration: the current bounds, and ``iterate`` copied
        into the block, which then holds the new ``self.iterate``."""
        k = self.n_iterations
        if k == self._iterates.shape[0]:
            grown = np.empty((min(max(2 * k, CUT_BLOCK), max_iters), iterate.size))
            grown[:k] = self._iterates
            self._iterates = grown
        self._iterates[k] = iterate
        self.iterate = self._iterates[k]
        self.upper_history.append(self.upper_bound)
        self.lower_history.append(self.lower_bound)

    @functools.cached_property
    def cuts(self):
        """The cuts in the order they were added: cut k is anchored at the
        zero start (k = 0) or at iterate k of the history.  One oracle call
        on the anchors gives each cut the bits the solve gave it."""
        n = self.n_iterations
        if not n:
            return []
        problem = self.problem
        anchors = np.concatenate((np.zeros((1, self.iterate.size)), self._iterates[:n - 1]))
        ys = np.repeat(problem.measurements.y[None], len(anchors), axis=0)
        values, slopes = _oracle(problem.penalty, ys, anchors,
                                 CertificateGrid(problem.measurements.grid, problem.kernel))
        return [Cut(*cut) for cut in zip(anchors, values.tolist(), slopes)]


def _level(upper, lower):
    """The level of an iteration with bounds ``upper`` and ``lower``."""
    return LEVEL_MIX * upper + (1.0 - LEVEL_MIX) * lower


def _oracle(penalty, ys, weights, cert_grid: CertificateGrid):
    """Objective values and subgradients at each row of ``weights``, the
    data ``ys`` row by row; one batched supremum serves every row."""
    t_star, sup_val = cert_grid.supremum(weights)
    # row dot products, with the bits of a 1-D y @ weights
    values = -np.matmul(ys[:, None, :], weights[:, :, None])[:, 0, 0]
    values += penalty * np.maximum(sup_val - 1.0, 0.0)
    slopes = -ys
    active = sup_val >= 1.0 - ACTIVE_SUP_TOL
    columns = build_phi(cert_grid.grid, cert_grid.kernel, t_star[active]).T
    slopes[active] += penalty * columns
    return values, slopes


def penalty_objective(problem: PenaltyProblem, weights) -> float:
    """Psi at one dual vector."""
    weights = np.asarray(weights, dtype=float)
    grid = CertificateGrid(problem.measurements.grid, problem.kernel)
    return float(_oracle(problem.penalty, problem.measurements.y[None], weights[None], grid)[0][0])


class CutModel:
    """The polyhedral models max_i (offsets_i + slopes_i . lam) over the box
    of a lockstep batch: one model per point, with as many cuts each.

    Point p's epigraph LP is min t s.t. G z <= h over z = (lam, t): first
    the 2n box rows +-e_j with h = box_radius, then one row [slopes_i, -1]
    with h = -offsets_i per cut.  The box rows are held once for all
    points: ``_rows`` and ``_rhs`` are one table of them and then one block
    of cut rows per point (``_cuts``, ``_h``) with room for ``CUT_BLOCK``
    cuts, doubled whenever it fills but never past ``max_cuts`` cuts.
    Point p's row r is table row r, plus p times the room for a cut
    (``_index``), so any gather of rows is one take; ``level_set`` copies a
    point's cuts after the box rows of one dense buffer.  ``minima`` solves
    each LP by the dual simplex method on a basis of n + 1 rows B, kept
    with multipliers y >= 0 such that e_t + G_B^T y = 0 (dual feasible) and
    with its vertex z = G_B^-1 h_B.  Each pivot solves two systems with G_B
    by ``numpy.linalg.solve`` (an LU each); no inverse is updated.  The
    first cut sets the basis in closed form; every later cut starts from
    the previous optimal basis, so a cut the vertex already satisfies costs
    one product with the cut rows.

    A cut is one plane per certificate maximizer (or the data plane when
    the penalty is inactive), so cuts repeat.  Of the rows with one slope
    vector, the LP skips all but the one with the lowest h (the first of
    them on a tie); no row's h changes once written.

    Rows are only ever appended, so a row keeps its index in every
    ``level_set``; ``warm[p]`` is the ``numerics.WarmStart`` that carries
    point p's level-set projection's active rows into its next one.
    ``keep`` drops the points that left the batch.
    """

    def __init__(self, points, n, box_radius, max_cuts):
        self.box_radius, self.size, self._n_box, self._max_cuts = box_radius, 0, 2 * n, max_cuts
        self._rows = np.column_stack((np.concatenate((np.eye(n), -np.eye(n))), np.zeros(2 * n)))
        self._rhs = np.full(2 * n, box_radius, dtype=float)
        self._cuts, self._h = np.empty((points, 0, n + 1)), np.empty((points, 0))
        self._repeat = np.empty((points, 0), dtype=bool)
        self._reblock(range(points), min(CUT_BLOCK, max_cuts))
        self._basis = self._mult = self._vertex = None
        self.warm = [numerics.WarmStart() for _ in range(points)]

    def _reblock(self, points, room):
        """A new table: the box rows, then the cuts of ``points`` (indices,
        in order) with room for ``room`` cuts each."""
        n_box, size, width, count = self._n_box, self.size, self._rows.shape[1], len(points)
        rows, rhs = np.empty((n_box + count * room, width)), np.empty(n_box + count * room)
        rows[:n_box], rhs[:n_box] = self._rows[:n_box], self._rhs[:n_box]
        cuts, h = rows[n_box:].reshape(count, room, width), rhs[n_box:].reshape(count, room)
        repeat = np.zeros(h.shape, dtype=bool)
        # point by point: a gather would copy every held cut once more
        for new, old in enumerate(points):
            cuts[new, :size], h[new, :size], repeat[new, :size] = (
                self._cuts[old, :size], self._h[old, :size], self._repeat[old, :size])
        self._rows, self._rhs, self._cuts, self._h, self._repeat = rows, rhs, cuts, h, repeat
        self._dense = np.concatenate((rows[:n_box, :-1], np.empty((room, width - 1))))

    def _index(self, points, rows):
        """Table indices of the model rows ``rows`` of ``points``, broadcast."""
        return rows + (rows >= self._n_box) * (points * self._h.shape[1])

    def level_set(self, point, level):
        """(A, b) with {lam : A lam <= b} = {model <= level} for one point:
        the box rows (b = box_radius), then the cuts in the order they were
        added (b = h + level).  A is the model's one dense buffer, which
        holds the box rows and takes the point's cuts on each call (so it
        is valid until the next call); b is a new array."""
        a_mat = self._dense[:self._n_box + self.size]
        a_mat[self._n_box:] = self._cuts[point, :self.size, :-1]
        return a_mat, np.concatenate((self._rhs[:self._n_box], self._h[point, :self.size] + level))

    def add(self, anchors, values, slopes):
        """Append one cut per point: value + slope.(lam - anchor), from the
        rows of ``anchors`` and ``slopes`` and the entries of ``values``."""
        cut = self.size
        if cut == self._h.shape[1]:
            # no room left: double each point's block, up to max_cuts cuts
            self._reblock(range(len(slopes)), min(2 * cut, self._max_cuts))
        self._cuts[:, cut, :-1] = slopes
        self._cuts[:, cut, -1] = -1.0
        # row dot products, with the bits of a 1-D slope @ anchor
        self._h[:, cut] = np.matmul(slopes[:, None, :], anchors[:, :, None])[:, 0, 0]
        self._h[:, cut] -= values
        # a repeated plane: the twins' h differ by round-off, which the
        # vertex can show over LP_ROW_TOL, so they would enter the basis in
        # turn; the LP skips the looser of the new row and its live twin (the
        # new row on a tie), and a tighter new row enters by a pivot
        same = (self._cuts[:, :cut, :-1] == slopes[:, None, :]).all(2)
        same &= ~self._repeat[:, :cut]
        twins = same.any(1).nonzero()[0]
        if twins.size:
            held = same[twins].argmax(1)
            looser = np.where(self._h[twins, cut] < self._h[twins, held], held, cut)
            self._repeat[twins, looser] = True
        self.size += 1
        if self._basis is None:
            # the one cut's minimum over the box: lam_j on its lower bound
            # where slope_j > 0 and on its upper bound elsewhere, the bound
            # rows weighted |slope_j| and the cut 1
            points, n = slopes.shape
            self._basis = np.column_stack((np.where(slopes > 0.0, n + np.arange(n), np.arange(n)),
                                           np.full(points, self._n_box + cut)))
            self._mult = np.column_stack((np.abs(slopes), np.ones(points)))
            index = self._index(np.arange(points)[:, None], self._basis)
            self._vertex = _basis_solve(self.size, self._rows[index], self._rhs[index])

    def keep(self, points):
        """Keep only the models of ``points`` (indices, in order)."""
        self._reblock(points, self._h.shape[1])
        self._basis, self._mult, self._vertex = (
            self._basis[points], self._mult[points], self._vertex[points])
        self.warm = [self.warm[p] for p in points]

    def minima(self):
        """Each point's model minimum over the box, a list of floats; the
        vertex that attains it stays with the model for ``project``.

        Dual simplex from each point's current basis: while a row is
        violated by more than ``LP_ROW_TOL`` relative to max(1, |h|), the
        most violated one enters the basis and the row that the ratio test
        picks (lowest row index on ties) leaves it; the vertex is then
        solved afresh.  The points pivot in rounds: one stacked check of
        every model (``np.matmul`` on the cut blocks), then stacked
        ``numpy.linalg.solve`` calls for the points with a violated row.
        Each point's arithmetic is the same whatever points share a round.
        The value is the objective of a dual feasible basis, sum_i mu_i
        offsets_i - box_radius |slopes^T mu|_1 with mu the cut
        multipliers, so it bounds the model minimum from below up to
        round-off.  A point whose basis comes back within one LP (a cycle
        at a degenerate vertex; bases are recorded from its second pivot
        on) picks its entering row by Bland's rule for the rest of that LP:
        the lowest-index violated row.  Raises NoConvergenceError, naming
        the cut count, when there is no cut, when a basis is singular, when
        no basis row of a point can leave (its LP would be infeasible) or
        after ``LP_PIVOTS_PER_ROW`` pivots per basis row of one LP.  A row
        leaves only where the direction exceeds ``LP_PIVOT_TOL`` of its
        largest entry.
        """
        size = self.size
        if size == 0:
            raise NoConvergenceError("cut model LP (0 cuts): the model is unbounded below")
        cuts, h, repeat = self._cuts[:, :size], self._h[:, :size], self._repeat[:, :size]
        rhs = np.concatenate((self._rhs[None, :self._n_box].repeat(len(h), 0), h), 1)
        row_scale = np.maximum(1.0, np.abs(rhs))
        basis, mult, vertex = self._basis, self._mult, self._vertex
        each = np.arange(basis.shape[0])[:, None]
        max_pivots = LP_PIVOTS_PER_ROW * basis.shape[1]
        # the bases each point reached by its second pivot on, and whether
        # one came back: that point cycles, and enters by Bland's rule
        seen, bland = {}, np.zeros(basis.shape[0], dtype=bool)
        for pivots in range(max_pivots + 1):
            # every point's check at once (a box row's product is exactly
            # +-lam_j): a point that is done shows the same excess again
            excess = np.concatenate((vertex[:, :-1], -vertex[:, :-1],
                                     np.matmul(cuts, vertex[:, :, None])[:, :, 0]), 1)
            excess -= rhs
            excess /= row_scale
            # basis rows hold with equality and a repeat is no tighter than
            # its live twin; what they show is round-off
            excess[each, basis] = 0.0
            excess[:, self._n_box:][repeat] = 0.0
            pending = (excess.max(1) > LP_ROW_TOL).nonzero()[0]
            if not pending.size:
                break
            if pivots == max_pivots:
                raise NoConvergenceError(
                    f"cut model LP ({size} cuts): no optimal basis after {max_pivots} pivots")
            entering = excess[pending].argmax(1)
            if seen and bland.any():
                late = bland[pending].nonzero()[0]
                entering[late] = (excess[pending[late]] > LP_ROW_TOL).argmax(1)
            # the table rows of each pending point's basis, then of its
            # entering row, which takes the leaving row's place
            held = np.concatenate((basis[pending], entering[:, None]), 1)
            held = self._index(pending[:, None], held)
            given = self._rows[held]
            direction = _basis_solve(size, given[:, :-1].transpose(0, 2, 1), given[:, -1])
            for k, (p, d, row) in enumerate(zip(pending.tolist(), direction, entering.tolist())):
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
                b[leaving], held[k, leaving] = row, held[k, -1]
                if pivots:
                    key = frozenset(b.tolist())
                    bases = seen.setdefault(p, set())
                    bland[p] |= key in bases
                    bases.add(key)
            vertex[pending] = _basis_solve(size, self._rows[held[:, :-1]], self._rhs[held[:, :-1]])
        return vertex[:, -1].tolist()

    def project(self, point, level, x):
        """Euclidean projection of ``x`` onto {model <= level} of one
        point, clipped to the box and started from the rows the point's
        previous projection ended on.  Where the set is too thin to project
        onto, the point's vertex from the last ``minima`` stands in; a
        level below its model minimum raises LevelSetEmptyError."""
        a_mat, b_vec = self.level_set(point, level)
        try:
            projected = numerics.project_polyhedron(x, a_mat, b_vec, warm=self.warm[point])
        except (InfeasibleError, NoConvergenceError):
            # level set thinner than double precision resolves: the vertex
            # attains the model minimum, so it lies in every level set at or
            # above it, and is the limit of the projections
            projected, nu = self._vertex[point, :-1], float(self._vertex[point, -1])
            if level < nu - 1e-9:
                raise LevelSetEmptyError(
                    f"level {level} is below the model minimum {nu}") from None
        return np.clip(projected, -self.box_radius, self.box_radius)


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


def solve(problem: PenaltyProblem, max_iters: int) -> BundleState:
    """The level bundle method on one problem: ``solve_batch`` on a batch
    of one."""
    return solve_batch([problem], max_iters)[0]


def solve_batch(problems, max_iters: int, history=True):
    """Run the level bundle method from the zero vector on each problem,
    all in lockstep; returns one ``BundleState`` per problem.

    The problems share grid, kernel, penalty and box (ValueError
    otherwise); they differ in their data y.  Per iteration, for each
    problem still running: evaluate the objective and a subgradient at the
    current iterate, append the cut, refresh the model minimum (lower
    bound) and best value seen (upper bound), then project the iterate onto
    the set {model <= LEVEL_MIX * upper + (1 - LEVEL_MIX) * lower} inside
    the box.  Each state records the bounds and the projected iterate per
    iteration (``BundleState``), its iterates in one block of at most
    ``max_iters`` rows, and each problem's block of the model holds only
    its cut rows, at most ``max_iters``.  With ``history=False`` a state records nothing:
    it keeps only its current iterate and bounds, which end with the same
    bits, so its ``n_iterations``, histories, ``iterate_history`` and
    ``cuts`` are empty.  One batched oracle call
    (``CertificateGrid.supremum``) and one ``CutModel`` serve all running
    problems (the box rows held once); each keeps its own cut rows, LP
    basis, projection warm start and exit, and its arithmetic does not depend on the others, so a
    problem's result is the same bit for bit in any batch.  The returned
    states share no memory with the model.

    A problem stops when its projected iterate equals the previous one bit
    for bit: the next oracle call would return the last cut again, so the
    model, both bounds, the level and the projection would all repeat, and
    the iterate it returns is the one its last cut was evaluated at.  There
    is no gap test: round-off can lift the lower bound over the upper one,
    and a stop there would return a projection never evaluated;
    ``max_iters`` is an upper bound.  The lower bound is the model minimum
    as the objective of a dual feasible basis of the cut-model LP, warm-started from the
    previous iteration's basis; when an LP fails (see ``CutModel.minima``),
    the solve stops with NoConvergenceError, which the command line reports
    with exit code 3.  Each projection (``CutModel.project``) starts from
    the rows the previous one ended on.
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
    model = CutModel(len(problems), m, first.box_radius, max_iters)
    # the problem behind each point of the model, and its data
    running = list(range(len(problems)))
    for _ in range(max_iters):
        if not running:
            break
        iterates = np.array([states[i].iterate for i in running])
        cut_values, slopes = _oracle(first.penalty, ys, iterates, cert_grid)
        model.add(iterates, cut_values, slopes)
        minima = model.minima()
        going = []
        for point, (i, value, minimum) in enumerate(zip(running, cut_values.tolist(), minima)):
            state = states[i]
            state.upper_bound = min(state.upper_bound, value)
            # the running max keeps the gap history monotone
            state.lower_bound = max(state.lower_bound, minimum)
            projected = model.project(point, _level(state.upper_bound, state.lower_bound),
                                      state.iterate)
            if not np.array_equal(projected, state.iterate):
                going.append(point)
            if history:
                state._record(projected, max_iters)
            else:
                state.iterate = projected
        if len(going) < len(running):
            model.keep(going)
            ys = ys[going]
            running = [running[point] for point in going]
    return states
