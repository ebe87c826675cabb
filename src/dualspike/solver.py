"""Exact-penalty objective for the box-constrained dual program and the
level bundle method that minimizes it.

The objective is Psi(lam) = -y.lam + penalty * max(sup_t q_lam(t) - 1, 0)
over the box |lam|_inf <= box_radius.  Each iteration adds one cutting
plane, re-solves the polyhedral model over the box for a lower bound (a
dual simplex warm-started from the previous basis), and projects the
previous iterate onto a level set interpolated between the best value seen
and the model minimum.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

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
# cut rows a new CutModel has room for; the room doubles whenever it fills
CUT_BLOCK = 64


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
    z = G_B^-1 h_B.  The first cut sets the basis in closed form; every
    later cut starts from the previous optimal basis, so a cut the vertex
    already satisfies costs one product with G.
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
        self._lu = None
        self._vertex = None

    # the box rows, which the level set stacks below the cuts
    @property
    def box_rows(self):
        return self._rows[:self._n_box, :-1]

    @property
    def box_rhs(self):
        return self._rhs[:self._n_box]

    @property
    def offsets(self):
        return -self._rhs[self._cut_rows]

    @property
    def slopes(self):
        return self._rows[self._cut_rows, :-1]

    @property
    def _cut_rows(self):
        return slice(self._n_box, self._n_box + self.size)

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
            self._factor_basis()

    def _factor_basis(self):
        """LU-factor the basis rows and solve for their vertex."""
        lu, pivots, info = lapack.dgetrf(self._rows[self._basis])
        if info != 0:
            raise NoConvergenceError(f"cut model LP ({self.size} cuts): singular basis")
        self._lu = lu, pivots
        self._vertex = lapack.dgetrs(lu, pivots, self._rhs[self._basis])[0]

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
        infeasible) or after ``LP_PIVOTS_PER_ROW`` pivots per basis row.
        """
        if self.size == 0:
            raise NoConvergenceError("cut model LP (0 cuts): the model is unbounded below")
        rows = self._rows[:self._n_box + self.size]
        rhs = self._rhs[:rows.shape[0]]
        basis, mult = self._basis, self._mult
        max_pivots = LP_PIVOTS_PER_ROW * basis.size
        for pivots in range(max_pivots + 1):
            excess = (rows @ self._vertex - rhs) / np.maximum(1.0, np.abs(rhs))
            # basis rows hold with equality; what they show is round-off
            excess[basis] = 0.0
            entering = int(np.argmax(excess))
            if not excess[entering] > LP_ROW_TOL:
                return float(self._vertex[-1]), self._vertex[:-1].copy()
            if pivots == max_pivots:
                raise NoConvergenceError(
                    f"cut model LP ({self.size} cuts): no optimal basis after "
                    f"{max_pivots} pivots")
            # G_B^T direction = g_entering, from the LU of G_B
            direction = lapack.dgetrs(*self._lu, rows[entering], trans=1)[0]
            can_leave = np.flatnonzero(direction > 0.0)
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
            self._factor_basis()


def model_value(cuts, weights):
    """The polyhedral model of a list of cuts evaluated at one point."""
    values = np.array([c.value for c in cuts])
    slopes = np.array([c.slope for c in cuts])
    anchors = np.array([c.anchor for c in cuts])
    return float(np.max(values + slopes @ np.asarray(weights, dtype=float)
                        - np.einsum("ij,ij->i", slopes, anchors)))


def _level_constraints(model, level):
    a_mat = np.vstack([model.slopes, model.box_rows])
    b_vec = np.concatenate([level - model.offsets, model.box_rhs])
    return a_mat, b_vec


def project_to_level(model, level, point, minimum):
    """Euclidean projection of ``point`` onto {model <= level}, clipped to the box.

    ``model`` is a ``CutModel`` and ``minimum`` its (value, argmin).  When the
    set is numerically too thin to project onto, the model argmin (which
    attains the model minimum and therefore lies in any level set with
    level >= model minimum) is returned instead.  A level strictly below the
    model minimum raises LevelSetEmptyError.
    """
    point = np.asarray(point, dtype=float)
    a_mat, b_vec = _level_constraints(model, level)
    try:
        projected = numerics.project_polyhedron(point, a_mat, b_vec)
    except (InfeasibleError, NoConvergenceError):
        # level set thinner than double precision resolves: the model
        # argmin is the limit of the projections
        nu, projected = minimum
        if level < nu - 1e-9:
            raise LevelSetEmptyError(
                f"level {level} is below the model minimum {nu}") from None
    return np.clip(projected, -model.box_radius, model.box_radius)


def solve(problem: PenaltyProblem, level_mix: float = 0.25,
          max_iters: int = 500) -> BundleState:
    """Run the level bundle method from the zero vector.

    Per iteration: evaluate the objective and a subgradient at the current
    iterate, append the cut, refresh the model minimum (lower bound) and
    best value seen (upper bound), then project the iterate onto the set
    {model <= level_mix * upper + (1 - level_mix) * lower} inside the box.
    Every projected iterate is kept in ``iterate_history``.

    Stops when the projected iterate equals the previous one bit for bit:
    the next oracle call would return the last cut again, so the model, both
    bounds, the level and the projection would all repeat.  Also stops when
    the gap drops to ``DEFAULT_GAP_TOL``; ``max_iters`` is an upper bound.
    The lower bound is the model minimum as the objective of a dual
    feasible basis of the cut-model LP, warm-started from the previous
    iteration's basis; when that LP fails (see ``CutModel.minimum``), the
    solve stops with NoConvergenceError, which the command line reports
    with exit code 3.
    """
    if not 0.0 < level_mix < 1.0:
        raise ValueError("level_mix must lie strictly between 0 and 1")
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
        level = level_mix * state.upper_bound + (1.0 - level_mix) * state.lower_bound
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
