"""The benchmark's workloads and the checks applied to their CSV outputs.

Each workload is a fixed sequence of ``dualspike`` CLI commands on a
checked-in config.  The checks reuse the thresholds of the acceptance gate
(``tests/test_acceptance.py``): criterion 2 for ``solve5``, criterion 6 for
``noise3`` and criteria 4 and 5 for ``stability3``.
"""

import csv
import math
import os
import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    config: str
    # one CLI argument list per command, without --config/--out/--seed
    commands: tuple
    check: object


@dataclass
class Outcome:
    """What one run of a workload's commands produced, as the checks see it."""

    checks: list = field(default_factory=list)   # (name, ok, detail)
    rows: int = 0
    row_failures: int = 0
    loc_err_max: float = 1.0
    amp_err_max: float = 0.0
    bound_violations: int = 0
    in_window_rows: int = 0

    def add(self, name, ok, detail):
        self.checks.append((name, bool(ok), detail))

    @property
    def failed_checks(self):
        return [name for name, ok, _ in self.checks if not ok]


def read_rows(path):
    """CSV rows as dicts, skipping the leading '#' comment line."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_config_floats(path, key):
    """The comma-separated float list stored under ``key`` in a config file."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            name, sep, value = line.partition("=")
            if sep and name.strip() == key:
                return [float(v) for v in value.split(",")]
    raise KeyError(f"{path} has no key {key!r}")


def _number(text):
    """Parse a report value, written either as 1.5 or as np.float64(1.5)."""
    match = re.fullmatch(r"\s*(?:np\.float64\()?([^()]*?)\)?\s*", text)
    return float(match.group(1))


def _nearest_errors(found, truth):
    """For each true value, the index of and distance to the nearest found one."""
    pairs = []
    for t in truth:
        if not found:
            pairs.append((None, 1.0))
            continue
        j = min(range(len(found)), key=lambda k: abs(found[k] - t))
        pairs.append((j, abs(found[j] - t)))
    return pairs


def check_solve5(out_dir, sources, amplitudes):
    """Criterion 2: every spike found within 5e-4, amplitudes within 1e-3,
    and monotone bound columns in the convergence history."""
    out = Outcome()
    try:
        rec = read_rows(os.path.join(out_dir, "recovery.csv"))
        conv = read_rows(os.path.join(out_dir, "convergence.csv"))
    except OSError as exc:
        out.add("artifacts", False, str(exc))
        return out
    locs = [float(r["location"]) for r in rec]
    amps = [float(r["amplitude"]) for r in rec]
    out.rows = len(rec)
    nearest = _nearest_errors(locs, sources)
    out.loc_err_max = max(err for _, err in nearest)
    out.amp_err_max = max((abs(amps[j] - a) if j is not None else 1.0)
                          for (j, _), a in zip(nearest, amplitudes))
    out.add("spike_count", len(locs) == len(sources),
            f"{len(locs)} spikes recovered, {len(sources)} expected")
    out.add("loc_err", out.loc_err_max <= 5e-4, f"max loc err {out.loc_err_max:.3e} (<=5e-4)")
    out.add("amp_err", out.amp_err_max <= 1e-3, f"max amp err {out.amp_err_max:.3e} (<=1e-3)")
    upper = [float(r["upper"]) for r in conv]
    lower = [float(r["lower"]) for r in conv]
    monotone = (len(conv) > 0
                and all(b <= a for a, b in zip(upper, upper[1:]))
                and all(b >= a for a, b in zip(lower, lower[1:])))
    out.add("bounds_monotone", monotone,
            f"{len(conv)} convergence rows, upper non-increasing and lower non-decreasing")
    return out


def check_noise3(out_dir, sources, amplitudes):
    """Criterion 6: 33 sweep points without notes, the restricted ratio under
    its proven rate, and a support-error trend of at most 3."""
    out = Outcome(amp_err_max=0.0)
    try:
        rows = read_rows(os.path.join(out_dir, "exp_noise.csv"))
    except OSError as exc:
        out.add("artifacts", False, str(exc))
        return out
    out.rows = len(rows)
    out.row_failures = sum(1 for r in rows if r["note"] == "refine_failed")
    loc_errs = [float(r["loc_err"]) for r in rows if r["loc_err"]]
    out.loc_err_max = max(loc_errs, default=1.0)
    out.add("rows", len(rows) == 33, f"{len(rows)} sweep points (33 expected)")
    noted = [r["note"] for r in rows if r["note"]]
    out.add("notes", not noted, f"{len(noted)} rows carry a note")
    out.bound_violations = sum(1 for r in rows
                               if not r["ratio_sel"] or float(r["ratio_sel"]) > float(r["noise_rate"]))
    out.add("ratio_bound", out.bound_violations == 0,
            f"{out.bound_violations} rows with ratio_sel above noise_rate")
    trend = math.inf
    loc_ratios = [float(r["loc_ratio"]) for r in rows if r["loc_ratio"]]
    if len(loc_ratios) == len(rows) >= 14:
        first, last = loc_ratios[:5], loc_ratios[-9:]
        trend = (sum(last) / len(last)) / (sum(first) / len(first))
    out.add("trend", trend <= 3.0, f"support-error trend {trend:.3f} (<=3)")
    return out


def check_stability3(out_dir, sources, amplitudes):
    """Criteria 4 and 5: no in-window row above its proven rate, at least 30
    in-window rows in each experiment, a bounded late/early amplitude ratio
    growth, and a bounds report without error lines."""
    out = Outcome(amp_err_max=0.0)
    try:
        lam = read_rows(os.path.join(out_dir, "exp_lambda_t.csv"))
        t_a = read_rows(os.path.join(out_dir, "exp_t_a.csv"))
        report = read_rows(os.path.join(out_dir, "bounds_report.csv"))
        with open(os.path.join(out_dir, "bounds_report.txt"), encoding="utf-8") as fh:
            report_lines = fh.read().splitlines()
    except OSError as exc:
        out.add("artifacts", False, str(exc))
        return out
    out.rows = len(lam) + len(t_a) + len(report)
    out.row_failures = sum(1 for r in lam + t_a if r["note"] == "refine_failed")

    in4 = [r for r in lam if r["in_window"] == "1" and r["note"] == ""]
    v4 = sum(1 for r in in4 if float(r["ratio"]) > float(r["two_loc_rate"]))
    out.add("criterion4", v4 == 0 and len(in4) >= 30,
            f"{len(in4)} in-window rows (>=30), {v4} above twice the location rate")

    in5 = [r for r in t_a if r["in_window"] == "1" and r["note"] == ""]
    ratios = [float(r["ratio"]) for r in in5]
    v5 = sum(1 for r, x in zip(in5, ratios) if math.log10(x) >= float(r["amp_rate_log10"]))
    growth = math.inf
    if len(ratios) >= 2:
        half = len(ratios) // 2
        growth = ((sum(ratios[half:]) / len(ratios[half:]))
                  / (sum(ratios[:half]) / half))
    out.add("criterion5", v5 == 0 and len(in5) >= 30 and growth <= 3.0,
            f"{len(in5)} in-window rows (>=30), {v5} log10 violations, "
            f"late/early ratio {growth:.2f} (<=3)")
    out.bound_violations = v4 + v5
    out.in_window_rows = len(in4) + len(in5)

    errors = [line for line in report_lines if line.startswith("error_")]
    out.add("report_errors", not errors, f"{len(errors)} error_ lines in bounds_report.txt")
    peaks = []
    if report:
        peaks = [_number(report[0][f"refined_peaks_{i + 1}"] or "nan")
                 for i in range(len(sources)) if f"refined_peaks_{i + 1}" in report[0]]
    if len(peaks) == len(sources) and not any(math.isnan(p) for p in peaks):
        out.loc_err_max = max(abs(p - t) for p, t in zip(peaks, sources))
    out.add("refined_peaks", len(peaks) == len(sources),
            f"{len(peaks)} refined peaks, max loc err {out.loc_err_max:.3e}")
    return out


# solve5 runs 1000 of the config's 2000 iterations: a full 2000-iteration
# solve takes about 55 s on a 2-core host, which leaves no room in the
# benchmark's time budget.  The gap stops moving at iteration 116, so the
# extra 1000 iterations only grow the cut model further.
WORKLOADS = {
    "solve5": Workload("configs/five_spikes.cfg",
                       (("solve", "--iters", "1000"),), check_solve5),
    # --iters 100 is the sweep's documented default; the config's
    # iterations = 500 would otherwise apply to all 34 solves.
    "noise3": Workload("configs/three_spikes.cfg",
                       (("exp-noise", "--iters", "100", "--jobs", "1"),), check_noise3),
    "stability3": Workload("configs/three_spikes.cfg",
                           (("exp-lambda-t",), ("exp-t-a",), ("bounds",)), check_stability3),
}
