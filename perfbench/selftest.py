"""Quick self-test of the benchmark (about a minute on 2 cores).

    python3 perfbench/selftest.py

Runs every workload with tiny iteration counts, traced and untraced, and
checks that the result line carries exactly the metrics BENCHMARK.json
names, each with its unit, and that the readable report prints them too.
Then it tampers with real outputs and checks that the output checks reject
them, and that the benchmark refuses to run where there are no sources.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "out", "selftest")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, read_config_floats  # noqa: E402

# solve5 and stability3 pass their checks at these counts (stability3 needs
# more than window_end = 270); noise3's reference solve fails below about
# 90 iterations, which exercises the failure accounting instead
TINY_ITERS = {"solve5": 150, "noise3": 10, "stability3": 271}

failures = []


def expect(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--iters", str(TINY_ITERS[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def check_metric_lines(workload, trace, spec):
    code, lines = run_bench(workload, trace)
    label = f"{workload} --trace {trace}"
    expect(code == 0 and lines, f"{label}: exits 0 with output")
    if code != 0 or not lines:
        return
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{label}: result line has exactly correct/attempted/failed/metrics")
    expect(result["attempted"] >= 1, f"{label}: attempted >= 1")
    should_pass = workload != "noise3"
    expect(result["correct"] is should_pass and (result["failed"] == 0) is should_pass,
           f"{label}: correct is {should_pass} at {TINY_ITERS[workload]} iterations")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == wanted, f"{label}: metric names and units match BENCHMARK.json")
    numbers = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    expect(numbers, f"{label}: every metric value is a number")
    printed = [line.split() for line in lines[:-1]]
    missing = [n for n, u in wanted.items()
               if not any(len(w) == 4 and w[0] == n and w[1] == "=" and w[3] == u for w in printed)]
    expect(not missing, f"{label}: report prints every metric with its unit {missing or ''}")
    extra = {"loc_err_max", "amp_err_max", "bound_violations", "fail_frac"}
    shown = {w[0] for w in printed if len(w) == 4 and w[1] == "="}
    expect(extra <= shown, f"{label}: report prints accuracy and failure metrics")


def write_noise_sweep(out_dir):
    """A 33-point sweep that meets every noise3 check, for the checker alone."""
    header = ("w_c,noise_norm_sel,dual_err_sel,ratio_sel,noise_rate,loc_err,"
              "noise_norm_full,dual_err_full,ratio_full,loc_ratio,note")
    with open(os.path.join(out_dir, "exp_noise.csv"), "w", encoding="utf-8") as fh:
        fh.write("# written by the self-test\n" + header + "\n")
        for k in range(33):
            fh.write(f"{(k + 1) * 1e-3!r},1.0,1.0,1.0,10.0,1e-3,1.0,1.0,1.0,1.0,\n")


def tampered(workload, name, edit):
    """Copy a pass's outputs, apply ``edit`` to one CSV, run the checks."""
    dst = os.path.join(WORK, f"{workload}-{name}")
    shutil.rmtree(dst, ignore_errors=True)
    if workload == "noise3":
        os.makedirs(dst)
        write_noise_sweep(dst)
    else:
        shutil.copytree(os.path.join(HERE, "out", workload, "pass0"), dst)
    cfg = os.path.join(ROOT, WORKLOADS[workload].config)
    truth = (read_config_floats(cfg, "sources"), read_config_floats(cfg, "amplitudes"))
    before = dict((n, ok) for n, ok, _ in WORKLOADS[workload].check(dst, *truth).checks)
    edit(dst)
    after = dict((n, ok) for n, ok, _ in WORKLOADS[workload].check(dst, *truth).checks)
    return before, after


def edit_csv(path, change):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    comment, body = lines[0], list(csv.DictReader(lines[1:]))
    change(body)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(comment + "\n")
        writer = csv.DictWriter(fh, fieldnames=list(body[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(body)


def shift_location(rows):
    rows[2]["location"] = repr(float(rows[2]["location"]) + 1e-3)


def break_ratio(rows):
    rows[-1]["ratio_sel"] = repr(2.0 * float(rows[-1]["noise_rate"]))


def break_window_row(rows):
    row = next(r for r in rows if r["in_window"] == "1" and r["note"] == "")
    row["ratio"] = repr(2.0 * float(row["two_loc_rate"]))


def add_error_line(out_dir):
    with open(os.path.join(out_dir, "bounds_report.txt"), "a", encoding="utf-8") as fh:
        fh.write("error_curvatures = injected by the self-test\n")


def check_tampering():
    cases = [
        ("solve5", "shifted-location", "loc_err",
         lambda d: edit_csv(os.path.join(d, "recovery.csv"), shift_location)),
        ("noise3", "ratio-above-rate", "ratio_bound",
         lambda d: edit_csv(os.path.join(d, "exp_noise.csv"), break_ratio)),
        ("stability3", "window-row-above-rate", "criterion4",
         lambda d: edit_csv(os.path.join(d, "exp_lambda_t.csv"), break_window_row)),
        ("stability3", "report-error-line", "report_errors", add_error_line),
    ]
    for workload, name, check, edit in cases:
        before, after = tampered(workload, name, edit)
        expect(before.get(check) is True and after.get(check) is False,
               f"{workload}: check {check} passes on the real output and rejects {name}")


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark's files: must fail, print no result."""
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve5", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           "a directory without sources: non-zero exit and no result line")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json names exactly the benchmark's workloads")
    os.makedirs(WORK, exist_ok=True)
    for workload in sorted(WORKLOADS):
        for trace in (1, 0):
            check_metric_lines(workload, trace, spec)
    check_tampering()
    check_bare_directory()
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
