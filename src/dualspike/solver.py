"""Exact-penalty objective for the box-constrained dual program and the
level bundle method that minimizes it.

The objective is Psi(lam) = -y.lam + penalty * max(sup_t q_lam(t) - 1, 0)
over the box |lam|_inf <= box_radius.  Each iteration adds one cutting
plane, re-solves the polyhedral model over the box (warm-started from the
previous basis) for a lower bound, and projects the previous iterate onto a
level set interpolated between the best value seen and the model minimum.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize._highspy._core import HighsModelStatus, _Highs, kHighsInf

from . import numerics
from .certificate import CertificateGrid
from .errors import InfeasibleError, LevelSetEmptyError, NoConvergenceError
from .kernel import Kernel
from .model import MeasurementSet, build_phi

ACTIVE_SUP_TOL = 1e-12
DEFAULT_GAP_TOL = 1e-12


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
    """Solver state: final iterate, cut collection, and per-iteration history."""

    iterate: np.ndarray
    cuts: list[Cut] = field(default_factory=list)
    upper_bound: float = np.inf
    lower_bound: float = -np.inf
    gap_history: list[float] = field(default_factory=list)
    upper_history: list[float] = field(default_factory=list)
    lower_history: list[float] = field(default_factory=list)
    level_history: list[float] = field(default_factory=list)
    iterate_history: list[np.ndarray] | None = None

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

    Holds the cuts in preallocated arrays and the epigraph LP
    min t s.t. slopes_i . lam - t <= -offsets_i, |lam|_inf <= box_radius
    in one HiGHS instance.  Each added cut is one more row; ``minimum``
    re-solves from the previous optimal basis.
    """

    def __init__(self, n, box_radius, capacity):
        self.box_radius = box_radius
        self.size = 0
        self._offsets = np.empty(capacity)
        self._slopes = np.empty((capacity, n))
        # the box as rows of the level set, stacked below the cuts
        self.box_rows = np.vstack([np.eye(n), -np.eye(n)])
        self.box_rhs = np.full(2 * n, float(box_radius))
        self._row_index = np.arange(n + 1, dtype=np.int32)
        self._row_value = np.empty(n + 1)
        self._row_value[-1] = -1.0
        self._lp = _Highs()
        self._lp.setOptionValue("output_flag", False)
        # a reduced cost left at the default 1e-7 costs up to 2 * box_radius
        # times that in the objective (2e-2 at box_radius 1e5)
        self._lp.setOptionValue("dual_feasibility_tolerance", 1e-10)
        lower = np.append(np.full(n, -box_radius), -kHighsInf)
        upper = np.append(np.full(n, box_radius), kHighsInf)
        cost = np.zeros(n + 1)
        cost[-1] = 1.0
        empty = np.empty(0, dtype=np.int32)
        self._lp.addCols(n + 1, cost, lower, upper, 0, empty, empty, np.empty(0))

    @property
    def offsets(self):
        return self._offsets[:self.size]

    @property
    def slopes(self):
        return self._slopes[:self.size]

    def add(self, cut):
        offset = cut.value - float(cut.slope @ cut.anchor)
        self._offsets[self.size] = offset
        self._slopes[self.size] = cut.slope
        self.size += 1
        self._row_value[:-1] = cut.slope
        self._lp.addRow(-kHighsInf, -offset, self._row_index.size,
                        self._row_index, self._row_value)

    def _run_clean(self):
        """Solve; True when HiGHS reports optimal with no dual infeasibility."""
        self._lp.run()
        return (self._lp.getModelStatus() == HighsModelStatus.kOptimal
                and self._lp.getInfo().num_dual_infeasibilities == 0)

    def minimum(self):
        """(value, argmin) of the model over the box.

        A warm solve that is not optimal, or that HiGHS flags with dual
        infeasibilities (its value can then overstate the minimum), is redone
        cold on the same instance.  When that cold solve is not clean either,
        raises NoConvergenceError: no valid lower bound is available.
        """
        if not self._run_clean():
            self._lp.clearSolver()
            if not self._run_clean():
                status = self._lp.modelStatusToString(self._lp.getModelStatus())
                flagged = self._lp.getInfo().num_dual_infeasibilities
                raise NoConvergenceError(
                    f"cut model LP ({self.size} cuts) not clean after a cold re-solve: "
                    f"status {status}, {flagged} dual infeasibilities")
        x = np.array(self._lp.getSolution().col_value)
        return self._lp.getObjectiveValue(), x[:-1]


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


def solve(problem: PenaltyProblem, level_mix: float = 0.25, max_iters: int = 500,
          record_iterates: bool = False) -> BundleState:
    """Run the level bundle method from the zero vector.

    Per iteration: evaluate the objective and a subgradient at the current
    iterate, append the cut, refresh the model minimum (lower bound) and
    best value seen (upper bound), then project the iterate onto the set
    {model <= level_mix * upper + (1 - level_mix) * lower} inside the box.

    Stops when the projected iterate equals the previous one bit for bit:
    the next oracle call would return the last cut again, so the model, both
    bounds, the level and the projection would all repeat.  Also stops when
    the gap drops to ``DEFAULT_GAP_TOL``; ``max_iters`` is an upper bound.
    The model minimum is HiGHS's optimal value, re-solved cold when HiGHS
    flags dual infeasibilities; when the cold solve is not clean either, the
    solve stops with NoConvergenceError (see ``CutModel.minimum``), which the
    command line reports with exit code 3.
    """
    if not 0.0 < level_mix < 1.0:
        raise ValueError("level_mix must lie strictly between 0 and 1")
    m = problem.measurements.grid.n_samples
    cert_grid = CertificateGrid(problem.measurements.grid, problem.kernel)
    state = BundleState(iterate=np.zeros(m))
    if record_iterates:
        state.iterate_history = []
    if max_iters <= 0:
        return state
    model = None
    for _ in range(max_iters):
        value, slope, _ = _oracle(problem, state.iterate, cert_grid)
        if model is None:
            # built after the first oracle call, which ends the set-up phase
            model = CutModel(m, problem.box_radius, max_iters)
        cut = Cut(state.iterate.copy(), value, slope)
        state.cuts.append(cut)
        model.add(cut)
        state.upper_bound = min(state.upper_bound, value)
        minimum = model.minimum()
        # the LP's primal value; the running max keeps the gap history monotone
        state.lower_bound = max(state.lower_bound, minimum[0])
        gap = state.upper_bound - state.lower_bound
        level = level_mix * state.upper_bound + (1.0 - level_mix) * state.lower_bound
        previous = state.iterate
        state.iterate = project_to_level(model, level, previous, minimum)
        state.upper_history.append(state.upper_bound)
        state.lower_history.append(state.lower_bound)
        state.level_history.append(level)
        state.gap_history.append(gap)
        if record_iterates:
            state.iterate_history.append(state.iterate.copy())
        if gap <= DEFAULT_GAP_TOL or np.array_equal(state.iterate, previous):
            break
    return state
