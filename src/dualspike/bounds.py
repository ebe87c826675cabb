"""Closed-form stability constants for the dual approach.

Three families, all evaluated from a converged reference certificate rather
than from unknowable ground truth:

* dual-to-location: a validity radius for dual perturbations and the linear
  rate at which certificate maximizers move per unit of dual error;
* location-to-amplitude: the least-squares sensitivity of the recovered
  amplitudes to support perturbations (carried in log10, since the
  exp(4/sigma^2) prefactor overflows for narrow kernels);
* noise-to-dual: the reduced 2k x 2k Jacobian built from the samples
  nearest each source, whose smallest singular value controls how
  measurement noise moves the dual solution.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .certificate import refine_peaks
from .errors import CurvatureSignError, InsufficientSamplesError, RadiusTooLargeError
from .kernel import THIRD_SUP_COEFF, Kernel
from .model import SampleGrid, SourceModel, build_phi

SQRT_E = math.sqrt(math.e)
# mixes the curvature and third-derivative suprema; ~7.3484
CURV_MIX_COEFF = 4.0 + THIRD_SUP_COEFF * math.sqrt(2.0 / math.e)
LINEAR_LOG10_LIMIT = 300.0


def _require_negative_curvature(curvature):
    if not curvature < 0:
        raise CurvatureSignError(
            f"certificate curvature must be negative, got {curvature}")


def location_stability_radius(curvature, sigma, n_samples, dual_norm):
    """Radius of the location ball on which the implicit map is controlled."""
    _require_negative_curvature(curvature)
    c = THIRD_SUP_COEFF
    return sigma**2 * abs(curvature) / (
        math.sqrt(n_samples) * (4.0 + 2.0 * c * dual_norm / sigma))


def dual_stability_radius(curvature, sigma, n_samples, dual_norm):
    """Radius of the dual ball on which the location bound holds (closed form)."""
    _require_negative_curvature(curvature)
    c = THIRD_SUP_COEFF
    ratio = dual_norm / sigma
    return (curvature**2 * sigma**3 * SQRT_E
            / (4.0 * math.sqrt(2.0) * (2.0 + c * ratio) * n_samples))


def dual_stability_radius_composed(curvature, sigma, n_samples, dual_norm):
    """The same radius assembled from its two-step construction."""
    _require_negative_curvature(curvature)
    step = sigma * SQRT_E * abs(curvature) / (2.0 * math.sqrt(2.0 * n_samples))
    return step * location_stability_radius(curvature, sigma, n_samples, dual_norm)


def location_error_rate(curvature, sigma, n_samples, dual_norm):
    """Location error per unit dual error (canonical form)."""
    _require_negative_curvature(curvature)
    c = THIRD_SUP_COEFF
    first = (2.0 * math.sqrt(2.0 * n_samples) * (2.0 * sigma + c * dual_norm)
             / (abs(curvature) * sigma * SQRT_E * (4.0 * sigma + c * dual_norm)))
    second = 2.0 * sigma / (4.0 * sigma + c * dual_norm)
    return first + second


def location_error_rate_alt(curvature, sigma, n_samples, dual_norm):
    """Alternative form of the rate; differs from the canonical one by a
    1/sigma factor in the leading term and a factor 2 in the trailing one."""
    _require_negative_curvature(curvature)
    c = THIRD_SUP_COEFF
    ratio = dual_norm / sigma
    return (1.0 / (4.0 + c * ratio)) * (
        1.0 + 2.0 * math.sqrt(2.0 * n_samples) * (2.0 + c * ratio)
        / (abs(curvature) * SQRT_E))


def phi_shift_lipschitz_log10(sigma, n_samples):
    """log10 of the Frobenius Lipschitz constant of the translate matrix:
    ||Phi(t~) - Phi(t)||_F <= 4 exp(4/sigma^2) sqrt(m) / sigma^2 * ||t~ - t||_2."""
    return (math.log10(4.0 * math.sqrt(n_samples) / sigma**2)
            + (4.0 / sigma**2) / math.log(10.0))


def amplitude_error_rate_log10(sigma, n_samples, amp_norm, sigma_min_phi):
    """Amplitude error per unit location error, as (log10, linear-or-None).

    The linear value is produced only when it is representable
    (log10 below 300).
    """
    if not sigma_min_phi > 0:
        raise ValueError("sigma_min of the translate matrix must be positive")
    log10 = (phi_shift_lipschitz_log10(sigma, n_samples)
             + math.log10(amp_norm / sigma_min_phi))
    linear = 10.0**log10 if log10 < LINEAR_LOG10_LIMIT else None
    return log10, linear


def phi_singular_values(grid: SampleGrid, kernel: Kernel, locations):
    """Singular values of the translate matrix Phi at ``locations``, descending."""
    return np.linalg.svd(build_phi(grid, kernel, locations), compute_uv=False)


def location_perturbation_limit_log10(sigma, n_samples, sigma_max_phi, sigma_min_phi):
    """Support-perturbation radius under which the amplitude bound applies,
    as (log10, linear); the linear value is 0.0 where it would underflow
    (log10 at or below -300)."""
    if not (sigma_max_phi >= sigma_min_phi > 0):
        raise ValueError("need sigma_max >= sigma_min > 0")
    ratio_sq = (sigma_min_phi / sigma_max_phi) ** 2
    # sqrt(1 + x) - 1 rewritten to survive x underflowing below epsilon
    bracket = ratio_sq / (math.sqrt(1.0 + ratio_sq) + 1.0)
    log10 = (math.log10(sigma_max_phi * bracket)
             - phi_shift_lipschitz_log10(sigma, n_samples))
    return log10, 10.0**log10 if log10 > -LINEAR_LOG10_LIMIT else 0.0


def curvature_floor(curvature, sigma, dual_norm):
    """Lower bound on the certificate curvature throughout the location ball;
    always within (|q''|/2, |q''|]."""
    _require_negative_curvature(curvature)
    c = THIRD_SUP_COEFF
    frac = c * dual_norm / (4.0 * sigma + 2.0 * c * dual_norm)
    return abs(curvature) * (1.0 - frac)


def sensitivity_drift_rate(n_sources, n_samples, sigma, loc_rate, dual_norm,
                           dual_radius, curv_floor):
    """Second-order drift of the implicit location map per unit dual error,
    evaluated at the worst case inside the dual stability ball."""
    denom_root = sigma**2 * curv_floor - 2.0 * math.sqrt(n_samples) * dual_radius
    if denom_root <= 0:
        raise RadiusTooLargeError("dual radius exceeds the drift bound's validity region")
    numer = (CURV_MIX_COEFF * loc_rate * math.sqrt(n_samples) * (dual_norm + dual_radius)
             + (2.0 * math.sqrt(2.0) / SQRT_E) * sigma) * math.sqrt(n_sources)
    return numer / denom_root**2


def jacobian_drift_rate(n_sources, sigma, penalty, box_radius, loc_rate, drift):
    """Frobenius growth rate of the reduced Jacobian under perturbations.

    The sample count enters only through ``drift``.
    """
    k = n_sources
    ct = loc_rate
    inv_s2 = (2.0 * math.sqrt(k) * ct**2 * penalty
              + 4.0 * k * ct * drift * box_radius * penalty)
    inv_s1 = (math.sqrt(2.0 * k) * ct / SQRT_E
              + 4.0 * math.sqrt(k) * ct**2 * penalty
              + 2.0 * math.sqrt(2.0) * drift * penalty / SQRT_E
              + 8.0 * k * ct * drift * box_radius * penalty
              + math.sqrt(2.0 * k) * drift * penalty / SQRT_E
              + math.sqrt(2.0 / math.e) * ct)
    return math.sqrt(2.0) * k * (inv_s2 / sigma**2 + inv_s1 / sigma)


def select_informative_samples(src: SourceModel, grid: SampleGrid):
    """For each source its two nearest samples, deduplicated by falling back
    to the next nearest on collision.  Returns (sorted 2k sample indices,
    per-source nearest index among the pair)."""
    k = src.n_sources
    if grid.n_samples < 2 * k:
        raise InsufficientSamplesError(
            f"need at least {2 * k} samples, grid has {grid.n_samples}")
    taken = set()
    selected, kept = [], []
    for t in src.locations:
        order = np.argsort(np.abs(grid.samples - t), kind="stable")
        pair = []
        for j in order:
            if int(j) not in taken:
                pair.append(int(j))
                taken.add(int(j))
            if len(pair) == 2:
                break
        selected.extend(pair)
        kept.append(pair[0])
    return np.array(sorted(selected)), np.array(kept)


def assemble_jacobian(src: SourceModel, grid: SampleGrid, kernel: Kernel,
                      peaks, curvatures):
    """Reduced 2k x 2k Jacobian of the stationarity system at the optimum.

    Rows run over the selected samples; the left k columns differentiate
    with respect to the kept dual entries, the right k with respect to the
    (penalty-scaled) convex weights.  ``peaks`` are the reference
    certificate's refined maximizers near each source (``refine_peaks``)
    and ``curvatures`` its q'' there.

    Returns (jacobian, selected_sample_indices, kept_dual_indices).
    """
    selected, kept = select_informative_samples(src, grid)
    if np.any(curvatures >= 0):
        raise CurvatureSignError(
            f"non-negative curvature at a source: {curvatures}")
    # d_left[j, l] = sum_i a_i phi'(t_i - s_j) phi'(t_i - s_l) / q''(t_i);
    # the kept samples are among the selected ones, so their rows are shared
    dphi_sel = kernel.derivative(peaks[None, :] - grid.samples[selected][:, None], 1)
    dphi_kept = dphi_sel[np.searchsorted(selected, kept)]
    weights = src.amplitudes / curvatures
    left = dphi_sel @ (weights[:, None] * dphi_kept.T)
    right = -build_phi(grid, kernel, peaks)[selected]
    return np.hstack([left, right]), selected, kept


def noise_rate_and_radius(sigma_min, drift_rate):
    """Dual error per unit noise, 2 / sigma_min, and the admissible noise
    radius sigma_min^2 / (4 drift_rate), None without a drift rate.

    ``sigma_min`` is the reduced Jacobian's smallest singular value and
    must be positive.
    """
    radius = None if drift_rate is None else sigma_min**2 / (4.0 * drift_rate)
    return 2.0 / sigma_min, radius


@dataclass
class BoundsReport:
    """Every stability constant for one configuration, with soft failures.

    Fields that could not be computed stay None and the reason is recorded
    in ``errors`` under the field name.
    """

    # scalars, then vectors (expanded to name_1, name_2, ...), in output order
    sigma: float = 0.0
    n_samples: int = 0
    n_sources: int = 0
    penalty: float = 0.0
    box_radius: float = 0.0
    dual_norm: float = 0.0
    amp_rate_log10: float | None = None
    amp_rate_linear: float | None = None
    sigma_max_phi: float | None = None
    sigma_min_phi: float | None = None
    perturbation_limit_log10: float | None = None
    perturbation_limit: float | None = None
    sigma_min_jacobian: float | None = None
    curv_floor: float | None = None
    drift: float | None = None
    jacobian_rate: float | None = None
    noise_rate: float | None = None
    noise_radius: float | None = None
    source_locations: np.ndarray | None = None
    refined_peaks: np.ndarray | None = None
    curvatures: np.ndarray | None = None
    location_radii: np.ndarray | None = None
    dual_radii: np.ndarray | None = None
    location_rates: np.ndarray | None = None
    location_rates_alt: np.ndarray | None = None
    rate_form_ratio: np.ndarray | None = None
    selected_samples: np.ndarray | None = None
    kept_dual_indices: np.ndarray | None = None
    # written separately by to_text; not part of the CSV row
    jacobian: np.ndarray | None = None
    errors: dict = field(default_factory=dict)

    def scalar_items(self):
        """(name, value) pairs with plain Python ints and floats, which
        ``repr`` writes as bare numbers."""
        items = []
        for f in fields(self):
            if f.name in ("jacobian", "errors"):
                continue
            val = getattr(self, f.name)
            if isinstance(val, np.ndarray):
                items.extend((f"{f.name}_{i + 1}", v) for i, v in enumerate(val.tolist()))
            else:
                items.append((f.name, val.item() if isinstance(val, np.generic) else val))
        return items

    def to_text(self):
        lines = []
        for key, val in self.scalar_items():
            lines.append(f"{key} = {'' if val is None else repr(val)}")
        if self.jacobian is not None:
            for i, row in enumerate(self.jacobian):
                lines.append(f"jacobian_row_{i + 1} = " + ",".join(map(repr, row.tolist())))
        for key, msg in sorted(self.errors.items()):
            lines.append(f"error_{key} = {msg}")
        return "\n".join(lines) + "\n"


def full_report(src: SourceModel, grid: SampleGrid, kernel: Kernel,
                dual_weights, penalty: float, box_radius: float) -> BoundsReport:
    """Evaluate every constant from one reference dual vector, failing soft
    per field."""
    weights = np.asarray(dual_weights, dtype=float)
    sigma = kernel.sigma
    m = grid.n_samples
    k = src.n_sources
    dual_norm = float(np.linalg.norm(weights))
    report = BoundsReport(sigma=sigma, n_samples=m, n_sources=k,
                          penalty=penalty, box_radius=box_radius,
                          dual_norm=dual_norm,
                          source_locations=src.locations.copy())

    # refine_peaks fails every run that does not end where q'' < 0
    peaks, curvs, failures = refine_peaks(kernel, grid.samples, weights[None], src.locations)
    if failures:
        report.errors["curvatures"] = failures[min(failures)]
    else:
        report.refined_peaks, report.curvatures = peaks[0], curvs[0]
    curvatures = report.curvatures

    if curvatures is not None:
        report.location_radii = np.array(
            [location_stability_radius(c, sigma, m, dual_norm) for c in curvatures])
        report.dual_radii = np.array(
            [dual_stability_radius(c, sigma, m, dual_norm) for c in curvatures])
        report.location_rates = np.array(
            [location_error_rate(c, sigma, m, dual_norm) for c in curvatures])
        report.location_rates_alt = np.array(
            [location_error_rate_alt(c, sigma, m, dual_norm) for c in curvatures])
        report.rate_form_ratio = report.location_rates / report.location_rates_alt
        # worst case across sources: flattest curvature, widest dual radius
        flattest = curvatures[np.argmin(np.abs(curvatures))]
        ct_worst = float(report.location_rates.max())
        dual_radius = float(report.dual_radii.min())
        report.curv_floor = curvature_floor(flattest, sigma, dual_norm)
        try:
            report.drift = sensitivity_drift_rate(
                k, m, sigma, ct_worst, dual_norm, dual_radius, report.curv_floor)
            report.jacobian_rate = jacobian_drift_rate(
                k, sigma, penalty, box_radius, ct_worst, report.drift)
        except RadiusTooLargeError as exc:
            report.errors["drift"] = str(exc)

    singulars = phi_singular_values(grid, kernel, src.locations)
    report.sigma_max_phi = float(singulars[0])
    report.sigma_min_phi = float(singulars[-1])
    if report.sigma_min_phi > 0:
        amp_norm = float(np.linalg.norm(src.amplitudes))
        report.amp_rate_log10, report.amp_rate_linear = amplitude_error_rate_log10(
            sigma, m, amp_norm, report.sigma_min_phi)
        report.perturbation_limit_log10, report.perturbation_limit = (
            location_perturbation_limit_log10(sigma, m, report.sigma_max_phi,
                                              report.sigma_min_phi))
    else:
        report.errors["amp_rate_log10"] = "translate matrix is singular"

    if report.refined_peaks is None:
        report.errors["jacobian"] = report.errors["curvatures"]
    else:
        try:
            jac, selected, kept = assemble_jacobian(
                src, grid, kernel, report.refined_peaks, report.curvatures)
            report.jacobian = jac
            report.selected_samples = selected
            report.kept_dual_indices = kept
            report.sigma_min_jacobian = float(np.linalg.svd(jac, compute_uv=False)[-1])
        except InsufficientSamplesError as exc:
            report.errors["jacobian"] = str(exc)

    sigma_min = report.sigma_min_jacobian
    if sigma_min is not None and sigma_min > 0:
        report.noise_rate, report.noise_radius = noise_rate_and_radius(
            sigma_min, report.jacobian_rate)
        if report.noise_radius is None:
            report.errors.setdefault("noise_radius", "drift rate unavailable")
    elif sigma_min is not None:
        report.errors["noise_rate"] = "reduced Jacobian is singular"

    return report
