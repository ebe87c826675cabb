"""Experiment drivers: the reference stage, the ratio experiments, the
noise sweep, and the bounds report.  Every driver but ``run_solve`` starts
from ``reference_run``, the clean solve plus ``bounds.full_report`` at its
final iterate, and takes its stability constants from that report.  Every
driver writes deterministic CSV artifacts (header row plus a comment line
with the config digest and seed).
"""

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import bounds
from .certificate import Certificate, dump_curve, refine_location
from .config import ExperimentConfig
from .errors import ConfigError, DualSpikeError, NoConvergenceError
from .model import noise_grid, synthesize, uniform_noise
from .recovery import recover, recover_amplitudes
from .solver import BundleState, PenaltyProblem, solve

DEFAULT_SOLVE_ITERS = 500
DEFAULT_RATIO_ITERS = 500
DEFAULT_NOISE_ITERS = 100
# dual errors below this relative floor cannot be resolved in double
# precision once the trajectory has converged onto the reference iterate
WINDOW_REL_FLOOR = 1e-9


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, comment, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


def _comment(cfg: ExperimentConfig, seed):
    return f"config={cfg.digest or 'inline'} seed={seed} rng=pcg64"


def build_problem(cfg: ExperimentConfig, noise=None):
    measurements = synthesize(cfg.source_model(), cfg.sample_grid(), cfg.kernel(), noise)
    return PenaltyProblem(measurements, cfg.kernel(), cfg.pi, cfg.tau)


def _certificate(problem: PenaltyProblem, weights) -> Certificate:
    return Certificate(weights, problem.measurements.grid, problem.kernel)


def run_solve(cfg: ExperimentConfig, out_dir):
    """Single solve: convergence, certificate curve, and recovery CSVs.

    Returns the paths written.  Raises EmptySupportError (after writing the
    convergence and certificate files) when no maximizer qualifies as
    support.
    """
    iterations = cfg.iterations if cfg.iterations is not None else DEFAULT_SOLVE_ITERS
    problem = build_problem(cfg)
    state = solve(problem, level_mix=cfg.alpha, max_iters=iterations)
    os.makedirs(out_dir, exist_ok=True)
    comment = _comment(cfg, cfg.seed)
    files = []

    conv_path = os.path.join(out_dir, "convergence.csv")
    write_csv(conv_path, comment, ["iter", "upper", "lower", "gap"],
              [(i + 1, u, lo, g) for i, (u, lo, g) in enumerate(
                  zip(state.upper_history, state.lower_history, state.gap_history))])
    files.append(conv_path)

    cert = _certificate(problem, state.iterate)
    curve = dump_curve(cert)
    cert_path = os.path.join(out_dir, "certificate.csv")
    write_csv(cert_path, comment, ["t", "q"], [tuple(row) for row in curve])
    files.append(cert_path)

    recovery = recover(cert, problem.measurements.y)
    rec_path = os.path.join(out_dir, "recovery.csv")
    write_csv(rec_path, comment, ["location", "amplitude"],
              list(zip(recovery.locations, recovery.amplitudes)))
    files.append(rec_path)
    return files


def reference_run(cfg: ExperimentConfig, iterations):
    """The reference stage of every experiment: the clean solve and the
    stability constants at its final iterate.

    Returns (problem, state, report), with ``report`` from
    ``bounds.full_report``, the one place the constants the drivers compare
    against (location rates, amplitude rate, reduced-Jacobian sigma_min)
    are computed.
    """
    problem = build_problem(cfg)
    state = solve(problem, level_mix=cfg.alpha, max_iters=iterations)
    report = bounds.full_report(cfg.source_model(), cfg.sample_grid(), cfg.kernel(),
                                state.iterate, cfg.pi, cfg.tau)
    return problem, state, report


def _constant(report: bounds.BoundsReport, name):
    """A report field a driver needs; DualSpikeError (exit code 3) naming
    the report's errors when it could not be computed."""
    value = getattr(report, name)
    if value is None:
        raise DualSpikeError(f"reference report has no {name}: {report.errors}")
    return value


def window_threshold(state: BundleState):
    """Dual-error level below which iterates are indistinguishable from the
    reference: the second-to-last iterate's error, floored at machine scale."""
    final = state.iterate
    history = state.iterate_history
    raw = float(np.linalg.norm(history[-2] - final)) if len(history) > 1 else 0.0
    return max(raw, WINDOW_REL_FLOOR * max(1.0, float(np.linalg.norm(final))))


def _reference_iterations(cfg: ExperimentConfig):
    return (cfg.reference_iterations if cfg.reference_iterations is not None
            else DEFAULT_RATIO_ITERS)


def reference_window(cfg: ExperimentConfig):
    """Reference stage of a ratio experiment and its iteration window.

    Returns (problem, report, window): ``report`` is the reference run's
    constants report, and ``window`` yields, for each iteration p from
    ``window_start`` to ``window_end``, the tuple (p, dual_err, in_window,
    cert_p) of the p-th iterate against the final one.
    """
    ref_iters = _reference_iterations(cfg)
    if ref_iters <= cfg.window_end:
        raise ConfigError("key 'window_end': reference_iterations must exceed the window",
                          key="window_end")
    problem, state, report = reference_run(cfg, ref_iters)
    threshold = window_threshold(state)

    def window():
        best = state.iterate
        p_max = min(cfg.window_end, len(state.iterate_history))
        for p in range(cfg.window_start, p_max + 1):
            iterate = state.iterate_history[p - 1]
            dual_err = float(np.linalg.norm(iterate - best))
            yield p, dual_err, int(dual_err >= threshold), _certificate(problem, iterate)

    return problem, report, window()


def run_lambda_t(cfg: ExperimentConfig, out_dir):
    """Location error against dual error across the iteration window, next
    to the reference report's per-source ``location_rates``."""
    _, report, window = reference_window(cfg)
    rates = _constant(report, "location_rates")
    src = cfg.source_model()
    rows = []
    for p, dual_err, in_window, cert_p in window:
        for i, t_true in enumerate(src.locations):
            try:
                t_p = refine_location(cert_p, t_true)
            except NoConvergenceError:
                rows.append((p, i + 1, None, dual_err, None, rates[i],
                             2.0 * rates[i], 0, "refine_failed"))
                continue
            loc_err = abs(t_p - t_true)
            ratio = loc_err / dual_err if dual_err > 0 else None
            rows.append((p, i + 1, loc_err, dual_err, ratio, rates[i],
                         2.0 * rates[i], in_window if ratio is not None else 0, ""))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "exp_lambda_t.csv")
    write_csv(path, _comment(cfg, cfg.seed),
              ["iter", "source", "loc_err", "dual_err", "ratio",
               "loc_rate", "two_loc_rate", "in_window", "note"], rows)
    return path, rows


def run_t_a(cfg: ExperimentConfig, out_dir):
    """Amplitude error against location error across the iteration window,
    next to the reference report's ``amp_rate_log10``."""
    problem, report, window = reference_window(cfg)
    amp_log10 = _constant(report, "amp_rate_log10")
    src = cfg.source_model()
    grid = cfg.sample_grid()
    kernel = cfg.kernel()
    y = problem.measurements.y
    rows = []
    for p, _, in_window, cert_p in window:
        try:
            t_p, _ = bounds.refine_peaks(cert_p, src.locations)
        except NoConvergenceError:
            rows.append((p, None, None, None, amp_log10, 0, "refine_failed"))
            continue
        loc_err = float(np.linalg.norm(t_p - src.locations))
        if loc_err == 0.0:
            rows.append((p, None, 0.0, None, amp_log10, 0, "zero_loc_err"))
            continue
        result = recover_amplitudes(grid, kernel, t_p, y)
        amp_err = float(np.linalg.norm(result.amplitudes - src.amplitudes))
        rows.append((p, amp_err, loc_err, amp_err / loc_err, amp_log10, in_window, ""))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "exp_t_a.csv")
    write_csv(path, _comment(cfg, cfg.seed),
              ["iter", "amp_err", "loc_err", "ratio", "amp_rate_log10",
               "in_window", "note"], rows)
    return path, rows


def _noise_point(args):
    """One sweep point: solve the noisy problem, return dual and support data."""
    (index, w_c, cfg, iters) = args
    seed = cfg.seed + index
    noise = uniform_noise(len(cfg.samples), w_c, seed)
    problem = build_problem(cfg, noise=noise)
    state = solve(problem, level_mix=cfg.alpha, max_iters=iters)
    try:
        peaks, _ = bounds.refine_peaks(_certificate(problem, state.iterate),
                                       cfg.source_model().locations)
    except NoConvergenceError:
        return index, noise, state.iterate, None, "refine_failed"
    return index, noise, state.iterate, peaks, ""


def run_noise(cfg: ExperimentConfig, out_dir, jobs=1):
    """Noise sweep: dual and support error against noise magnitude.

    The clean reference and every sweep point run for the same iteration
    count (default 100).  Each point draws its noise from seed + index, so
    points are reproducible independently of execution order.  The
    ``noise_rate`` column is 2 / ``sigma_min_jacobian`` of the reference
    report, inf when that singular value is 0, and the restricted errors
    run over the report's ``selected_samples``.  The points run in at most
    ``jobs`` worker processes, one per point at most; ``jobs`` below 1
    raises ConfigError.
    """
    if jobs < 1:
        raise ConfigError(f"key 'jobs': must be at least 1, got {jobs}", key="jobs")
    iters = cfg.iterations if cfg.iterations is not None else DEFAULT_NOISE_ITERS
    grid_vals = cfg.noise_grid if cfg.noise_grid is not None else noise_grid()
    _, state, report = reference_run(cfg, iters)
    smallest = _constant(report, "sigma_min_jacobian")
    noise_rate = 2.0 / smallest if smallest > 0 else float("inf")
    selected = report.selected_samples
    src = cfg.source_model()
    ref = state.iterate

    tasks = [(i, float(w_c), cfg, iters) for i, w_c in enumerate(grid_vals)]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_noise_point, tasks))
    else:
        results = [_noise_point(t) for t in tasks]

    rows = []
    for (index, noise, lam_noisy, peaks, note), w_c in zip(results, grid_vals):
        if w_c == 0.0:
            rows.append((w_c, None, None, None, noise_rate, None, None, None,
                         None, None, "zero_noise"))
            continue
        w_sel = float(np.linalg.norm(noise[selected]))
        w_full = float(np.linalg.norm(noise))
        dual_sel = float(np.linalg.norm(lam_noisy[selected] - ref[selected]))
        dual_full = float(np.linalg.norm(lam_noisy - ref))
        loc_err = float(np.linalg.norm(peaks - src.locations)) if peaks is not None else None
        rows.append((
            w_c, w_sel, dual_sel, dual_sel / w_sel if w_sel > 0 else None,
            noise_rate, loc_err, w_full, dual_full,
            dual_full / w_full if w_full > 0 else None,
            (loc_err / w_full) if (loc_err is not None and w_full > 0) else None,
            note))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "exp_noise.csv")
    write_csv(path, _comment(cfg, cfg.seed),
              ["w_c", "noise_norm_sel", "dual_err_sel", "ratio_sel",
               "noise_rate", "loc_err", "noise_norm_full", "dual_err_full",
               "ratio_full", "loc_ratio", "note"], rows)
    return path, rows


def run_bounds(cfg: ExperimentConfig, out_dir):
    """The reference stage's constants report, as text and as a one-row CSV."""
    _, _, report = reference_run(cfg, _reference_iterations(cfg))
    os.makedirs(out_dir, exist_ok=True)
    comment = _comment(cfg, cfg.seed)
    text_path = os.path.join(out_dir, "bounds_report.txt")
    with open(text_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {comment}\n")
        fh.write(report.to_text())
    csv_path = os.path.join(out_dir, "bounds_report.csv")
    items = report._scalar_items()
    write_csv(csv_path, comment, [name for name, _ in items], [[v for _, v in items]])
    return report, [text_path, csv_path]
