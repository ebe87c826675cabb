"""Experiment drivers: the reference stage, the ratio experiments, the
noise sweep, and the bounds report.  Every driver but ``run_solve`` starts
from ``reference_run``, the clean solve plus ``bounds.full_report`` at its
final iterate, and takes its stability constants from that report.  The
reference stage keeps the clean solve's iterates in ``--out``
(``reference.csv``), keyed by the clean problem, not the cap, so the next
command into the same directory reads them instead of solving again.
Every driver writes deterministic artifacts (``write_csv``) and returns
(the paths it wrote, its data); the reference drivers read only the
reference solve's iterates, ``run_solve`` its bound histories too, and no
driver reads a solve's cuts.  The noise sweep solves its points in lockstep
(``solver.solve_batch``), one batch per worker process, each on a
contiguous chunk of points, and without history: a sweep point keeps only
its final iterate, the one thing the sweep reads.  The reference solves
go through ``solve``.
Each driver refines its certificates in one lockstep call
(``certificate.refine_peaks``): the whole iteration window, each sweep
chunk's final iterates, and the reference report's peaks.
"""

import os

import numpy as np

from . import bounds
from .certificate import Certificate, dump_curve, refine_peaks, supremum
from .config import ExperimentConfig, sha256
from .errors import ConfigError, DualSpikeError
from .model import noise_grid, synthesize, uniform_noise
from .recovery import recover, recover_amplitudes
from .solver import PenaltyProblem, solve, solve_batch

DEFAULT_ITERS = 500
DEFAULT_NOISE_ITERS = 100
# iterations of the reference solve the ratio experiments compare
WINDOW_START = 20
WINDOW_END = 270
# dual errors below this relative floor cannot be resolved in double
# precision once the trajectory has converged onto the reference iterate
WINDOW_REL_FLOOR = 1e-9
# the reference stage's record of its clean solve, in --out
REFERENCE_FILE = "reference.csv"


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write(cfg: ExperimentConfig, out_dir, name, lines):
    """Write ``name`` into ``out_dir``, created if missing: the comment line
    with the config digest and seed, then the strings of ``lines``, each
    written as it comes (a generator keeps the file out of memory).
    Returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config={cfg.digest or 'inline'} seed={cfg.seed} rng=pcg64\n")
        fh.writelines(lines)
    return path


def write_csv(cfg: ExperimentConfig, out_dir, name, header, rows):
    """One CSV artifact: the comment line, the header row and ``rows``
    (None as an empty field, strings as they are), streamed to the file a
    line at a time.  Returns its path.  ``rows`` may be a float array: each
    row goes through ``tolist`` and ``repr`` at once, which writes what
    ``_fmt`` writes per value."""
    def lines():
        yield ",".join(header) + "\n"
        if isinstance(rows, np.ndarray):
            for row in rows:
                yield ",".join(map(repr, row.tolist())) + "\n"
        else:
            for row in rows:
                yield ",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n"
    return _write(cfg, out_dir, name, lines())


def _iterations(cfg: ExperimentConfig, default):
    return cfg.iterations if cfg.iterations is not None else default


def build_problem(cfg: ExperimentConfig, noise=None):
    measurements = synthesize(cfg.source_model(), cfg.sample_grid(), cfg.kernel(), noise)
    return PenaltyProblem(measurements, cfg.kernel(), cfg.pi, cfg.tau)


def _check_penalty(problem: PenaltyProblem, final):
    """DualSpikeError (exit code 3) naming ``pi`` when pi <= L = y.lam /
    max(1, sup q) at the final iterate ``final``.  lam / max(1, sup q) is
    dual feasible, so by weak duality L bounds the primal mass |a|_1 from
    below: pi <= L proves that the penalty need not be exact.  Clean y only:
    noisy y lies outside the cone, where L says nothing about pi."""
    _, sup_q = supremum(Certificate(final, problem.measurements.grid, problem.kernel))
    mass_bound = float(problem.measurements.y @ final) / max(1.0, sup_q)
    if problem.penalty <= mass_bound:
        raise DualSpikeError(f"key 'pi': {problem.penalty:g} does not exceed {mass_bound:.6g} "
                             f"= y.lam / max(1, sup q), a lower bound on the primal mass")


def run_solve(cfg: ExperimentConfig, out_dir):
    """Single solve: convergence, certificate curve, and recovery CSVs.

    Returns (paths, recovery).  Raises DualSpikeError, before writing
    anything, when the penalty is too small (``_check_penalty``), and
    EmptySupportError (after writing the convergence and certificate files)
    when no maximizer qualifies as support.
    """
    problem = build_problem(cfg)
    state = solve(problem, max_iters=_iterations(cfg, DEFAULT_ITERS))
    _check_penalty(problem, state.iterate)
    paths = [write_csv(cfg, out_dir, "convergence.csv", ["iter", "upper", "lower", "gap"],
                       [(i + 1, u, lo, g) for i, (u, lo, g) in enumerate(
                           zip(state.upper_history, state.lower_history,
                               state.gap_history))])]
    cert = Certificate(state.iterate, problem.measurements.grid, problem.kernel)
    paths.append(write_csv(cfg, out_dir, "certificate.csv", ["t", "q"], dump_curve(cert)))
    recovery = recover(cert, problem.measurements.y)
    paths.append(write_csv(cfg, out_dir, "recovery.csv", ["location", "amplitude"],
                           zip(recovery.locations, recovery.amplitudes)))
    return paths, recovery


def _reference_key(problem: PenaltyProblem):
    """16 hex digits of SHA-256 over what the reference solve's bits depend
    on, apart from its cap: the package's own sources (each ``*.py`` file
    in name order), numpy's version, y, the samples, sigma, pi and tau."""
    digest = sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                source = fh.read()
            digest.update(f"{name} {len(source)}\n".encode() + source)
    measurements = problem.measurements
    digest.update(f"numpy {np.__version__} m {measurements.y.size} "
                  f"sigma {problem.kernel.sigma!r} pi {problem.penalty!r} "
                  f"tau {problem.box_radius!r}\n".encode())
    digest.update(measurements.y.tobytes() + measurements.grid.samples.tobytes())
    return digest.hexdigest()[:16]


def _reference_header(m):
    return ",".join(f"lam_{j + 1}" for j in range(m)) + "\n"


def _load_reference(path, key, m):
    """The iterates that the record at ``path`` holds, one row each, or
    None when it does not hold them: no file, another key or header, a row
    count other than its key line's, or a row that is not m floats ending
    in a newline."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            fh.readline()
            head = fh.readline()
            if fh.readline() != _reference_header(m):
                return None
            rows = []
            for line in fh:
                if not line.endswith("\n"):
                    return None
                rows.append([float(v) for v in line.split(",")])
    except (OSError, UnicodeDecodeError, ValueError):
        return None
    if not rows or head != f"# key={key} rows={len(rows)}\n" or any(len(row) != m for row in rows):
        return None
    return np.array(rows)


def _save_reference(cfg: ExperimentConfig, out_dir, iterates, key):
    """Write ``iterates`` as ``REFERENCE_FILE`` in ``out_dir`` through a
    temporary file there and ``os.replace``, so a reader finds the old
    record or the new one, never part of one.  Returns its path."""
    def lines():
        yield f"# key={key} rows={len(iterates)}\n"
        yield _reference_header(iterates.shape[1])
        for row in iterates:
            yield ",".join(map(repr, row.tolist())) + "\n"
    path = os.path.join(out_dir, REFERENCE_FILE)
    temporary = _write(cfg, out_dir, f".{REFERENCE_FILE}.{os.getpid()}", lines())
    os.replace(temporary, path)
    return path


def reference_run(cfg: ExperimentConfig, iterations, out_dir):
    """The reference stage of every experiment: the clean solve and the
    stability constants at its final iterate.

    Returns (paths, problem, iterates, report): ``iterates`` the solve's
    projected iterates as one (n, m) array, its last row the reference
    dual vector, and ``report`` from ``bounds.full_report``, the one place
    the constants the drivers compare against (location rates, amplitude
    rate, reduced-Jacobian sigma_min) are computed, from the solved
    problem's grid, kernel, penalty and box.  A solve that ran no
    iteration leaves the zero vector, not a reference: DualSpikeError
    (exit code 3) naming ``iterations``.  So does a penalty too small for
    the data (``_check_penalty``).

    The iterates' record is ``REFERENCE_FILE`` in ``out_dir``: the comment
    line, ``# key=`` with 16 hex digits of ``_reference_key`` and
    ``rows=n``, the header ``lam_1,...,lam_m``, then one row per iterate
    as ``repr`` floats, which read back bit for bit.  A record with this
    problem's key and n rows, each m floats ending in a newline, serves a
    cap c <= n with its first c rows (a solve's first c iterates do not
    depend on its cap), or any cap once n > 1 and its last row repeats the
    one before (the solve's stop rule); it then stays as it is.  Any other
    file there, or rows short of the cap, is a miss, which solves and
    replaces it.  Only a solve that passes the penalty check (run, like the
    report, on both paths) writes the record; ``paths`` lists it then, else
    is empty.
    """
    problem = build_problem(cfg)
    key = _reference_key(problem)
    iterates = _load_reference(os.path.join(out_dir, REFERENCE_FILE), key,
                               problem.measurements.y.size)
    stopped = iterates is not None and len(iterates) > 1 and np.array_equal(*iterates[-2:])
    solved = iterates is None or len(iterates) < iterations and not stopped
    if solved:
        iterates = np.array(solve(problem, max_iters=iterations).iterate_history)
    iterates = iterates[:iterations]
    if len(iterates) == 0:
        raise DualSpikeError(f"key 'iterations': the reference solve ran no iteration "
                             f"(iterations = {iterations})")
    _check_penalty(problem, iterates[-1])
    paths = [_save_reference(cfg, out_dir, iterates, key)] if solved else []
    report = bounds.full_report(cfg.source_model(), problem.measurements.grid, problem.kernel,
                                iterates[-1], problem.penalty, problem.box_radius)
    return paths, problem, iterates, report


def _constant(report: bounds.BoundsReport, name):
    """A report field a driver needs; DualSpikeError (exit code 3) naming
    the report's errors when it could not be computed."""
    value = getattr(report, name)
    if value is None:
        raise DualSpikeError(f"reference report has no {name}: {report.errors}")
    return value


def window_threshold(iterates):
    """Dual-error level below which iterates are indistinguishable from the
    reference, the last of ``iterates``: the second-to-last iterate's error,
    floored at machine scale."""
    final = iterates[-1]
    raw = float(np.linalg.norm(iterates[-2] - final)) if len(iterates) > 1 else 0.0
    return max(raw, WINDOW_REL_FLOOR * max(1.0, float(np.linalg.norm(final))))


def reference_window(cfg: ExperimentConfig, out_dir):
    """Reference stage of a ratio experiment and its iteration window.

    Returns (paths, problem, report, window): ``paths`` and ``report`` are
    the reference run's (the record it wrote, if any, and its constants
    report), and ``window`` lists, for each iteration p from
    ``WINDOW_START`` to ``WINDOW_END``, or to the solve's last iteration
    when it stopped before, the tuple (p, dual_err, in_window, peaks) of
    the p-th iterate against the final one, ``peaks`` its certificate
    refined from each source (NaN where that fails), the whole window in
    one ``refine_peaks`` call.  One slice of the iterates bounds the
    window, and its rows are numbered from ``WINDOW_START`` along it.  The
    iteration cap must exceed ``WINDOW_END``; ConfigError otherwise.
    """
    iterations = _iterations(cfg, DEFAULT_ITERS)
    if iterations <= WINDOW_END:
        raise ConfigError(f"key 'iterations': must exceed the window end {WINDOW_END}, "
                          f"got {iterations}")
    paths, problem, iterates, report = reference_run(cfg, iterations, out_dir)
    threshold = window_threshold(iterates)
    best = iterates[-1]
    window = iterates[WINDOW_START - 1:WINDOW_END]
    peaks, _, _ = refine_peaks(problem.kernel, problem.measurements.grid.samples, window,
                               cfg.source_model().locations)
    errors = [float(np.linalg.norm(iterate - best)) for iterate in window]
    return paths, problem, report, [(p, err, int(err >= threshold), row) for p, (err, row) in
                                    enumerate(zip(errors, peaks), WINDOW_START)]


def run_lambda_t(cfg: ExperimentConfig, out_dir):
    """Location error against dual error across the iteration window, next
    to the reference report's per-source ``location_rates``."""
    paths, _, report, window = reference_window(cfg, out_dir)
    rates = _constant(report, "location_rates")
    src = cfg.source_model()
    rows = []
    for p, dual_err, in_window, peaks in window:
        for i, (t_true, t_p) in enumerate(zip(src.locations, peaks.tolist())):
            if np.isnan(t_p):
                rows.append((p, i + 1, None, dual_err, None, rates[i],
                             2.0 * rates[i], 0, "refine_failed"))
                continue
            loc_err = abs(t_p - t_true)
            ratio = loc_err / dual_err if dual_err > 0 else None
            rows.append((p, i + 1, loc_err, dual_err, ratio, rates[i],
                         2.0 * rates[i], in_window if ratio is not None else 0, ""))
    return [*paths, write_csv(cfg, out_dir, "exp_lambda_t.csv",
                              ["iter", "source", "loc_err", "dual_err", "ratio",
                               "loc_rate", "two_loc_rate", "in_window", "note"], rows)], rows


def run_t_a(cfg: ExperimentConfig, out_dir):
    """Amplitude error against location error across the iteration window,
    next to the reference report's ``amp_rate_log10``."""
    paths, problem, report, window = reference_window(cfg, out_dir)
    amp_log10 = _constant(report, "amp_rate_log10")
    src = cfg.source_model()
    grid, y = problem.measurements.grid, problem.measurements.y
    rows = []
    for p, _, in_window, peaks in window:
        if np.isnan(peaks).any():
            rows.append((p, None, None, None, amp_log10, 0, "refine_failed"))
            continue
        loc_err = float(np.linalg.norm(peaks - src.locations))
        if loc_err == 0.0:
            rows.append((p, None, 0.0, None, amp_log10, 0, "zero_loc_err"))
            continue
        result = recover_amplitudes(grid, problem.kernel, peaks, y)
        amp_err = float(np.linalg.norm(result.amplitudes - src.amplitudes))
        rows.append((p, amp_err, loc_err, amp_err / loc_err, amp_log10, in_window, ""))
    return [*paths, write_csv(cfg, out_dir, "exp_t_a.csv",
                              ["iter", "amp_err", "loc_err", "ratio", "amp_rate_log10",
                               "in_window", "note"], rows)], rows


def _noise_chunk(args):
    """A contiguous chunk of sweep points, solved as one batch without
    history and refined in one ``refine_peaks`` call: per point (noise,
    final iterate, refined peaks or None, note)."""
    cfg, iters, points = args
    noises = [uniform_noise(len(cfg.samples), w_c, cfg.seed + index) for index, w_c in points]
    problems = [build_problem(cfg, noise=noise) for noise in noises]
    iterates = np.array([state.iterate for state in solve_batch(problems, iters, history=False)])
    peaks, _, _ = refine_peaks(problems[0].kernel, problems[0].measurements.grid.samples,
                               iterates, cfg.source_model().locations)
    return [(noise, iterate, None, "refine_failed") if np.isnan(row).any()
            else (noise, iterate, row, "") for noise, iterate, row in zip(noises, iterates, peaks)]


def run_noise(cfg: ExperimentConfig, out_dir, jobs=1):
    """Noise sweep: dual and support error against noise magnitude.

    The clean reference and every sweep point run for the same iteration
    count (default 100).  Each point draws its noise from seed + index, so
    points are reproducible independently of execution order.  The
    ``noise_rate`` column is the reference report's ``noise_rate``, 2 /
    ``sigma_min_jacobian``, and inf where that singular value is 0 (the
    report leaves the rate None there); the restricted errors
    run over the report's ``selected_samples``.  The points run in at most
    ``jobs`` worker processes, one per point at most, each solving a
    contiguous chunk of points in lockstep (``solver.solve_batch``); a
    point's result does not depend on the chunk it lands in.  ``jobs``
    below 1 raises ConfigError.
    """
    if jobs < 1:
        raise ConfigError(f"key 'jobs': must be at least 1, got {jobs}")
    iters = _iterations(cfg, DEFAULT_NOISE_ITERS)
    grid_vals = noise_grid()
    paths, _, iterates, report = reference_run(cfg, iters, out_dir)
    noise_rate = report.noise_rate if _constant(report, "sigma_min_jacobian") > 0 else float("inf")
    selected = report.selected_samples
    src = cfg.source_model()
    ref = iterates[-1]

    points = [(i, float(w_c)) for i, w_c in enumerate(grid_vals)]
    workers = min(jobs, len(points))
    chunks = [(cfg, iters, [points[i] for i in part])
              for part in np.array_split(np.arange(len(points)), workers)]
    if workers > 1:
        # imported here: a serial command does not pay for multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_noise_chunk, chunks))
    else:
        results = [_noise_chunk(chunk) for chunk in chunks]

    rows = []
    for (noise, lam_noisy, peaks, note), w_c in zip(
            (point for chunk in results for point in chunk), grid_vals):
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
    return [*paths, write_csv(cfg, out_dir, "exp_noise.csv",
                              ["w_c", "noise_norm_sel", "dual_err_sel", "ratio_sel",
                               "noise_rate", "loc_err", "noise_norm_full", "dual_err_full",
                               "ratio_full", "loc_ratio", "note"], rows)], rows


def run_bounds(cfg: ExperimentConfig, out_dir):
    """The reference stage's constants report, as text and as a one-row CSV.
    Returns (paths, report)."""
    paths, _, _, report = reference_run(cfg, _iterations(cfg, DEFAULT_ITERS), out_dir)
    items = report.scalar_items()
    return [*paths, _write(cfg, out_dir, "bounds_report.txt", [report.to_text()]),
            write_csv(cfg, out_dir, "bounds_report.csv", [name for name, _ in items],
                      [[v for _, v in items]])], report
