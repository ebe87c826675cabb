"""Exact-penalty objective for the box-constrained dual program and the
level bundle method that minimizes it.

The objective is Psi(lam) = -y.lam + penalty * max(sup_t q_lam(t) - 1, 0)
over the box |lam|_inf <= box_radius.  Each iteration adds one cutting
plane, solves the polyhedral model over the box for a lower bound, and
projects the previous iterate onto a level set interpolated between the
best value seen and the model minimum.
"""

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .certificate import CertificateGrid
from .errors import InfeasibleError, LevelSetEmptyError, NoConvergenceError
from .kernel import Kernel
from .model import MeasurementSet, feature_vector

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
        slope = -y + problem.penalty * feature_vector(problem.measurements.grid, problem.kernel, t_star)
        return value, slope, t_star
    return value, -y.copy(), None


def penalty_objective(problem: PenaltyProblem, weights) -> float:
    """Psi at one dual vector."""
    weights = np.asarray(weights, dtype=float)
    grid = CertificateGrid(problem.measurements.grid, problem.kernel)
    return _oracle(problem, weights, grid)[0]


def subgradient(problem: PenaltyProblem, weights):
    """A subgradient of Psi and the certificate argmax when it is active.

    Returns (slope, t_active); t_active is None on the inactive branch
    (sup < 1), where the subgradient is just -y.
    """
    weights = np.asarray(weights, dtype=float)
    grid = CertificateGrid(problem.measurements.grid, problem.kernel)
    _, slope, t_active = _oracle(problem, weights, grid)
    return slope, t_active


def _cut_arrays(cuts):
    values = np.array([c.value for c in cuts])
    slopes = np.array([c.slope for c in cuts])
    anchors = np.array([c.anchor for c in cuts])
    return values, slopes, anchors


def model_minimum(cuts, box_radius):
    """Exact minimum of the polyhedral model over the box, via an LP.

    Returns (value, argmin).  Requires at least one cut.
    """
    if not cuts:
        raise ValueError("model needs at least one cut")
    values, slopes, anchors = _cut_arrays(cuts)
    offsets = values - np.einsum("ij,ij->i", slopes, anchors)
    return numerics.lp_min(offsets, slopes, box_radius)


def model_value(cuts, weights):
    """The polyhedral model evaluated at one point."""
    values, slopes, anchors = _cut_arrays(cuts)
    return float(np.max(values + slopes @ np.asarray(weights, dtype=float)
                        - np.einsum("ij,ij->i", slopes, anchors)))


def _level_constraints(cuts, level, box_radius, n):
    values, slopes, anchors = _cut_arrays(cuts)
    a_mat = np.vstack([slopes, np.eye(n), -np.eye(n)])
    b_vec = np.concatenate([
        level - values + np.einsum("ij,ij->i", slopes, anchors),
        np.full(2 * n, box_radius),
    ])
    return a_mat, b_vec


def project_to_level(cuts, level, point, box_radius, minimum):
    """Euclidean projection of ``point`` onto {model <= level}, clipped to the box.

    ``minimum`` is the (value, argmin) pair from ``model_minimum``.  When the
    set is numerically too thin to project onto, the model argmin (which
    attains the model minimum and therefore lies in any level set with
    level >= model minimum) is returned instead.  A level strictly below the
    model minimum raises LevelSetEmptyError.
    """
    point = np.asarray(point, dtype=float)
    a_mat, b_vec = _level_constraints(cuts, level, box_radius, point.size)
    try:
        projected = numerics.project_polyhedron(point, a_mat, b_vec)
    except (InfeasibleError, NoConvergenceError):
        # level set thinner than double precision resolves: the model
        # argmin is the limit of the projections
        nu, projected = minimum
        if level < nu - 1e-9:
            raise LevelSetEmptyError(
                f"level {level} is below the model minimum {nu}") from None
    return np.clip(projected, -box_radius, box_radius)


def solve(problem: PenaltyProblem, level_mix: float = 0.25, max_iters: int = 500,
          record_iterates: bool = False) -> BundleState:
    """Run the level bundle method from the zero vector.

    Per iteration: evaluate the objective and a subgradient at the current
    iterate, append the cut, refresh the model minimum (lower bound) and
    best value seen (upper bound), then project the iterate onto the set
    {model <= level_mix * upper + (1 - level_mix) * lower} inside the box.
    Stops at ``max_iters`` or when the gap drops to ``DEFAULT_GAP_TOL``.
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
    box = problem.box_radius
    for _ in range(max_iters):
        value, slope, _ = _oracle(problem, state.iterate, cert_grid)
        state.cuts.append(Cut(state.iterate.copy(), value, slope))
        state.upper_bound = min(state.upper_bound, value)
        minimum = model_minimum(state.cuts, box)
        # each LP value is a valid lower bound, so their running max is too
        state.lower_bound = max(state.lower_bound, minimum[0])
        gap = state.upper_bound - state.lower_bound
        level = level_mix * state.upper_bound + (1.0 - level_mix) * state.lower_bound
        state.iterate = project_to_level(state.cuts, level, state.iterate, box, minimum)
        state.upper_history.append(state.upper_bound)
        state.lower_history.append(state.lower_bound)
        state.level_history.append(level)
        state.gap_history.append(gap)
        if record_iterates:
            state.iterate_history.append(state.iterate.copy())
        if gap <= DEFAULT_GAP_TOL:
            break
    return state
