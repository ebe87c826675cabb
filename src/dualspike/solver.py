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
"""

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
    """Solver state: final iterate, cut collection, and per-iteration history
    (bounds, level, gap and the projected iterate)."""

    iterate: np.ndarray
    cuts: list[Cut] = field(default_factory=list)
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


def _oracle(problem: PenaltyProblem, weights, cert_grid: CertificateGrid):
    """Objective value, a subgradient, and the active location (or None)."""
    y = problem.measurements.y
    t_star, sup_val = cert_grid.supremum(weights)
    value = -float(y @ weights) + problem.penalty * max(sup_val - 1.0, 0.0)
    if sup_val >= 1.0 - ACTIVE_SUP_TOL:
        column = build_phi(problem.measurements.grid, problem.kernel, [t_star])[:, 0]
        slope = -y + problem.penalty * column
        return value, slope, t_star
    return value, -y.copy(), None


def penalty_objective(problem: PenaltyProblem, weights) -> float:
    """Psi at one dual vector."""
    weights = np.asarray(weights, dtype=float)
    grid = CertificateGrid(problem.measurements.grid, problem.kernel)
    return _oracle(problem, weights, grid)[0]


class CutModel:
    """The polyhedral model max_i (offsets_i + slopes_i . lam) over the box.

    Holds the epigraph LP min t s.t. G z <= h over z = (lam, t) in arrays
    with room for ``CUT_BLOCK`` cuts, doubled whenever they fill: first the
    2n box rows +-e_j with h = box_radius, then one row [slopes_i, -1] with
    h = -offsets_i per cut.  ``minimum`` solves it by the dual simplex
    method on a basis of n + 1 rows B, kept with multipliers y >= 0 such
    that e_t + G_B^T y = 0 (dual feasible) and with its vertex
    z = G_B^-1 h_B.  Each pivot solves two systems with G_B by
    ``numpy.linalg.solve`` (an LU each); no inverse is updated.  The first
    cut sets the basis in closed form; every later cut starts from the
    previous optimal basis, so a cut the vertex already satisfies costs
    one product with G.

    Rows are only ever appended, so a row keeps its index in every
    ``level_set``; ``warm`` is the ``numerics.WarmStart`` that carries one
    level-set projection's active rows into the next.
    """

    def __init__(self, n, box_radius):
        self.box_radius = box_radius
        self.size = 0
        self._n_box = 2 * n
        self._rows = np.zeros((2 * n + CUT_BLOCK, n + 1))
        self._rhs = np.empty(2 * n + CUT_BLOCK)
        self._rows[:n, :n] = np.eye(n)
        self._rows[n:2 * n, :n] = -np.eye(n)
        self._rhs[:2 * n] = box_radius
        self._basis = None
        self._mult = None
        self._vertex = None
        self.warm = numerics.WarmStart()

    def level_set(self, level):
        """(A, b) with {lam : A lam <= b} = {model <= level}: the box rows and
        then the cuts in the order they were added, as a view of the model's
        rows with b = h - level * (last column)."""
        rows = self._rows[:self._n_box + self.size]
        return rows[:, :-1], self._rhs[:rows.shape[0]] - level * rows[:, -1]

    def add(self, cut):
        row = self._n_box + self.size
        if row == self._rhs.size:
            # no room left: double the cut block
            self._rows = np.concatenate([self._rows, np.zeros_like(self._rows[self._n_box:])])
            self._rhs = np.concatenate([self._rhs, np.empty(self.size)])
        self._rows[row, :-1] = cut.slope
        self._rows[row, -1] = -1.0
        self._rhs[row] = float(cut.slope @ cut.anchor) - cut.value
        self.size += 1
        if self._basis is None:
            # the one cut's minimum over the box: lam_j on its lower bound
            # where slope_j > 0 and on its upper bound elsewhere, the bound
            # rows weighted |slope_j| and the cut 1
            n = cut.slope.size
            self._basis = np.append(np.where(cut.slope > 0.0, n + np.arange(n), np.arange(n)),
                                    row)
            self._mult = np.append(np.abs(cut.slope), 1.0)
            self._vertex = self._basis_solve(self._rows[self._basis], self._rhs[self._basis])

    def _basis_solve(self, matrix, rhs):
        """``numpy.linalg.solve`` on a basis system; NoConvergenceError,
        naming the cut count, when the basis is singular."""
        try:
            return np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError:
            raise NoConvergenceError(
                f"cut model LP ({self.size} cuts): singular basis") from None

    def minimum(self):
        """(value, argmin) of the model over the box.

        Dual simplex from the current basis: while a row is violated by more
        than ``LP_ROW_TOL`` relative to max(1, |h|), the most violated one
        enters the basis and the row that the ratio test picks (lowest row
        index on ties) leaves it; the vertex is then solved afresh.  The
        value is the objective of a dual feasible basis, sum_i mu_i
        offsets_i - box_radius |slopes^T mu|_1 with mu the cut multipliers,
        so it bounds the model minimum from below up to round-off.  Raises
        NoConvergenceError, naming the cut count, when there is no cut, when
        the basis is singular, when no basis row can leave (the LP would be
        infeasible) or after ``LP_PIVOTS_PER_ROW`` pivots per basis row.  A
        row leaves only where the direction exceeds ``LP_PIVOT_TOL`` of its
        largest entry.
        """
        if self.size == 0:
            raise NoConvergenceError("cut model LP (0 cuts): the model is unbounded below")
        rows = self._rows[:self._n_box + self.size]
        rhs = self._rhs[:rows.shape[0]]
        row_scale = np.maximum(1.0, np.abs(rhs))
        basis, mult = self._basis, self._mult
        max_pivots = LP_PIVOTS_PER_ROW * basis.size
        for pivots in range(max_pivots + 1):
            excess = rows @ self._vertex
            excess -= rhs
            excess /= row_scale
            # basis rows hold with equality; what they show is round-off
            excess[basis] = 0.0
            entering = int(excess.argmax())
            if not excess[entering] > LP_ROW_TOL:
                return float(self._vertex[-1]), self._vertex[:-1].copy()
            if pivots == max_pivots:
                raise NoConvergenceError(
                    f"cut model LP ({self.size} cuts): no optimal basis after "
                    f"{max_pivots} pivots")
            basis_rows = rows.take(basis, 0)
            direction = self._basis_solve(basis_rows.T, rows[entering])
            can_leave = (direction > LP_PIVOT_TOL * abs(direction).max()).nonzero()[0]
            if can_leave.size == 0:
                raise NoConvergenceError(
                    f"cut model LP ({self.size} cuts): no basis row can leave")
            ratios = mult[can_leave] / direction[can_leave]
            tied = can_leave[ratios == ratios.min()]
            leaving = tied[np.argmin(basis[tied])]
            step = mult[leaving] / direction[leaving]
            np.maximum(mult - step * direction, 0.0, out=mult)
            mult[leaving] = step
            basis[leaving] = entering
            basis_rows[leaving] = rows[entering]
            self._vertex = self._basis_solve(basis_rows, rhs.take(basis))


def model_value(cuts, weights):
    """The polyhedral model of a list of cuts evaluated at one point."""
    values = np.array([c.value for c in cuts])
    slopes = np.array([c.slope for c in cuts])
    anchors = np.array([c.anchor for c in cuts])
    return float(np.max(values + slopes @ np.asarray(weights, dtype=float)
                        - np.einsum("ij,ij->i", slopes, anchors)))


def project_to_level(model, level, point, minimum):
    """Euclidean projection of ``point`` onto {model <= level}, clipped to the box.

    ``model`` is a ``CutModel`` and ``minimum`` its (value, argmin); the
    projection starts from the rows the model's previous projection ended
    on.  When the set is numerically too thin to project onto,
    the model argmin (which attains the model minimum and therefore lies in
    any level set with level >= model minimum) is returned instead.  A
    level strictly below the model minimum raises LevelSetEmptyError.
    """
    point = np.asarray(point, dtype=float)
    a_mat, b_vec = model.level_set(level)
    try:
        projected = numerics.project_polyhedron(point, a_mat, b_vec, warm=model.warm)
    except (InfeasibleError, NoConvergenceError):
        # level set thinner than double precision resolves: the model
        # argmin is the limit of the projections
        nu, projected = minimum
        if level < nu - 1e-9:
            raise LevelSetEmptyError(
                f"level {level} is below the model minimum {nu}") from None
    return np.clip(projected, -model.box_radius, model.box_radius)


def solve(problem: PenaltyProblem, max_iters: int) -> BundleState:
    """Run the level bundle method from the zero vector.

    Per iteration: evaluate the objective and a subgradient at the current
    iterate, append the cut, refresh the model minimum (lower bound) and
    best value seen (upper bound), then project the iterate onto the set
    {model <= LEVEL_MIX * upper + (1 - LEVEL_MIX) * lower} inside the box.
    Every projected iterate is kept in ``iterate_history``.

    Stops when the projected iterate equals the previous one bit for bit:
    the next oracle call would return the last cut again, so the model, both
    bounds, the level and the projection would all repeat.  Also stops when
    the gap drops to ``DEFAULT_GAP_TOL``; ``max_iters`` is an upper bound.
    The lower bound is the model minimum as the objective of a dual
    feasible basis of the cut-model LP, warm-started from the previous
    iteration's basis; when that LP fails (see ``CutModel.minimum``), the
    solve stops with NoConvergenceError, which the command line reports
    with exit code 3.  Each projection starts from the rows the previous
    one ended on (``CutModel.warm``).
    """
    m = problem.measurements.grid.n_samples
    cert_grid = CertificateGrid(problem.measurements.grid, problem.kernel)
    state = BundleState(iterate=np.zeros(m))
    model = CutModel(m, problem.box_radius)
    for _ in range(max_iters):
        value, slope, _ = _oracle(problem, state.iterate, cert_grid)
        cut = Cut(state.iterate.copy(), value, slope)
        state.cuts.append(cut)
        model.add(cut)
        state.upper_bound = min(state.upper_bound, value)
        minimum = model.minimum()
        # the running max keeps the gap history monotone
        state.lower_bound = max(state.lower_bound, minimum[0])
        gap = state.upper_bound - state.lower_bound
        level = LEVEL_MIX * state.upper_bound + (1.0 - LEVEL_MIX) * state.lower_bound
        previous = state.iterate
        state.iterate = project_to_level(model, level, previous, minimum)
        state.upper_history.append(state.upper_bound)
        state.lower_history.append(state.lower_bound)
        state.level_history.append(level)
        state.gap_history.append(gap)
        state.iterate_history.append(state.iterate.copy())
        if gap <= DEFAULT_GAP_TOL or np.array_equal(state.iterate, previous):
            break
    return state
