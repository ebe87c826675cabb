"""Benchmark for the dualspike pipeline: one workload per invocation.

    python3 perfbench/run.py --workload solve5 --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  Each workload is a fixed sequence of
``dualspike`` CLI commands (see workloads.py); every command runs in its own
process, one at a time (a closed loop with one client, ``--jobs 1``, BLAS
pinned to one thread).  Whole workload passes repeat while the next one is
predicted to end within ``--seconds`` (at least one pass runs).  Every pass's
CSV outputs are checked against the acceptance thresholds.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the workload runs once untraced and
once traced, and the JSON carries the per-layer metrics.  The lines before
it are a readable report.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Outcome, read_config_floats  # noqa: E402

# set-up-only processes per run, on top of the set-up of each command run
SETUP_PROBES = 4
# every run must end well within 180 s, the first one (cold caches) included
RUN_DEADLINE_S = 170.0
# per-layer counters that must repeat exactly for the same code, workload and seed
EXACT_COUNTERS = ("kernel.calls", "numerics.lp_rows", "numerics.linprog_attempts",
                  "numerics.project_fallbacks", "solver.iters",
                  "experiments.reference_solves", "experiments.in_window_rows")

UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "loc_err_max": "dimensionless",
    "amp_err_max": "amplitude", "bound_violations": "count", "fail_frac": "ratio",
    "numerics.lp_bytes_computed": "B", "experiments.bytes_written": "B",
    "numerics.lp_rows_per_call": "rows/call", "numerics.lp_useful_ratio": "ratio",
    "solver.final_gap": "objective", "trace.overhead_frac": "ratio",
    "trace.attributed_frac": "ratio",
}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


class Deadline(Exception):
    pass


def run_process(argv, log_path, deadline):
    """Run argv to completion; returns (exit code, wall s, cpu s, peak RSS MB)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Deadline(f"no time left to start {argv[4:]}")
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen([argv[0], argv[1], repr(start)] + argv[2:], cwd=ROOT,
                                env=env, stdout=log, stderr=subprocess.STDOUT)

    def kill(signum, frame):
        proc.kill()

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline:
        raise Deadline(f"{argv[4:]} did not finish in time")
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def command_argv(workload, index, out_dir, seed, iters, mode, result_path):
    args = list(workload.commands[index])
    if iters is not None:
        if "--iters" in args:
            args[args.index("--iters") + 1] = str(iters)
        else:
            args += ["--iters", str(iters)]
    cli = [args[0], "--config", os.path.join(ROOT, workload.config),
           "--out", out_dir, "--seed", str(seed)] + args[1:]
    return [sys.executable, os.path.join(HERE, "child.py"), result_path, mode, "--"] + cli


def run_pass(workload, out_dir, seed, iters, mode, deadline):
    """All commands of a workload once, into a fresh out_dir, then checked."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    sources = read_config_floats(os.path.join(ROOT, workload.config), "sources")
    amplitudes = read_config_floats(os.path.join(ROOT, workload.config), "amplitudes")
    info = {"wall": 0.0, "cpu": 0.0, "rss": 0.0, "setup": [], "exits": [], "dumps": []}
    for i in range(len(workload.commands)):
        result_path = os.path.join(out_dir, f"child{i}.json")
        argv = command_argv(workload, i, out_dir, seed, iters, mode, result_path)
        code, wall, cpu, rss = run_process(argv, os.path.join(out_dir, f"child{i}.log"), deadline)
        info["wall"] += wall
        info["cpu"] += cpu
        info["rss"] = max(info["rss"], rss)
        info["exits"].append(code)
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(result_path)
            if child["setup_s"] is not None:
                info["setup"].append(child["setup_s"])
            if child["trace"] is not None:
                info["dumps"].append(child["trace"])
    try:
        info["outcome"] = workload.check(out_dir, sources, amplitudes)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        # malformed or truncated output: one failed check, not a crash
        info["outcome"] = Outcome()
        info["outcome"].add("artifacts", False, f"unreadable output: {exc!r}")
    info["bytes_written"] = sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
        if not f.startswith("child"))
    return info


def probe_setup(workload, seed, iters, deadline):
    """Set-up time of the workload's first command, measured in fresh processes."""
    out_dir = os.path.join(OUT, "probe")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "child.json")
    samples = []
    for _ in range(SETUP_PROBES):
        if os.path.exists(result_path):
            os.remove(result_path)
        argv = command_argv(workload, 0, out_dir, seed, iters, "probe", result_path)
        code, _, _, _ = run_process(argv, os.path.join(out_dir, "child.log"), deadline)
        setup = None
        if code == 0 and os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                setup = json.load(fh)["setup_s"]
        if setup is None:
            raise RuntimeError(f"set-up probe failed, see {out_dir}/child.log")
        samples.append(setup)
    return samples


def tally(passes):
    """(attempted, failed): commands, emitted rows and output checks."""
    attempted = failed = 0
    for p in passes:
        outcome = p["outcome"]
        attempted += len(p["exits"]) + outcome.rows + len(outcome.checks)
        failed += (sum(1 for code in p["exits"] if code != 0) + outcome.row_failures
                   + len(outcome.failed_checks))
    return attempted, failed


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def source_digest():
    """Digest of the package sources, so stored counters never cross commits."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "dualspike")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return digest.hexdigest()[:16]


def check_exact_counters(workload_name, seed, iters, metrics):
    """Compare the exact counters with the last traced run of the same code,
    workload and seed in this checkout.  Returns a list of mismatches."""
    key = f"{workload_name}-seed{seed}-iters{iters}-{source_digest()}.json"
    path = os.path.join(OUT, "counters", key)
    current = {name: metrics[name] for name in EXACT_COUNTERS}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        return [f"{n}: {stored[n]} before, {current[n]} now"
                for n in EXACT_COUNTERS if stored.get(n) != current[n]]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(current, fh)
    return []


def output_bytes(out_dir):
    files = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith((".csv", ".txt")):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
    return files


def report_checks(label, passes):
    for k, p in enumerate(passes):
        for name, ok, detail in p["outcome"].checks:
            print(f"  [{label} pass {k}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
        bad = [c for c in p["exits"] if c != 0]
        if bad:
            print(f"  [{label} pass {k}] FAIL exit codes {p['exits']}")


def end_to_end(passes, setup):
    walls = [p["wall"] for p in passes]
    tail = tail_percentile(walls)
    print(f"wall_s: median {statistics.median(walls):.4f} s over {len(walls)} passes; "
          + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
             "tail percentile needs at least 11 passes"))
    print(f"setup_s: median of {len(setup)} set-ups (command processes and probes)")
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["rss"] for p in passes),
    }


def accuracy(passes):
    """Accuracy and failure figures; the output checks gate them."""
    attempted, failed = tally(passes)
    print(f"fail_frac: {failed}/{attempted} operations failed")
    metrics = {
        "loc_err_max": max(p["outcome"].loc_err_max for p in passes),
        "amp_err_max": max(p["outcome"].amp_err_max for p in passes),
        "bound_violations": sum(p["outcome"].bound_violations for p in passes),
        "fail_frac": failed / attempted,
    }
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--iters", type=int, default=None,
                        help="override every command's iteration count (self-test only)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dualspike", "cli.py")):
        print(f"error: {ROOT} holds no dualspike sources (src/dualspike)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    base = os.path.join(OUT, args.workload)
    try:
        if args.trace:
            return traced_run(args, workload, base, deadline)
        setup = probe_setup(workload, args.seed, args.iters, deadline)
        passes = []
        start = time.monotonic()
        while True:
            passes.append(run_pass(workload, os.path.join(base, f"pass{len(passes)}"),
                                   args.seed, args.iters, "run", deadline))
            setup += passes[-1]["setup"]
            elapsed = time.monotonic() - start
            if elapsed + passes[-1]["wall"] > args.seconds:
                break
    except (Deadline, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report_checks(args.workload, passes)
    metrics = end_to_end(passes, setup)
    extra, attempted, failed = accuracy(passes)
    problems = []
    windows = sorted({p["outcome"].in_window_rows for p in passes})
    if len(windows) > 1:
        problems.append(f"in-window row counts differ between passes: {windows}")
    for name, value in {**metrics, **extra}.items():
        show(name, value)
    finish(1, problems, attempted, failed, metrics)
    return 0


def traced_run(args, workload, base, deadline):
    """One untraced pass, then one traced pass; per-layer metrics."""
    plain = run_pass(workload, os.path.join(base, "untraced"), args.seed, args.iters,
                     "run", deadline)
    traced = run_pass(workload, os.path.join(base, "traced"), args.seed, args.iters,
                      "trace", deadline)
    report_checks(args.workload, [plain, traced])
    extra, attempted, failed = accuracy([plain, traced])
    metrics, missing = layer_metrics(traced["dumps"])
    for target in missing:
        print(f"not traced, no longer defined: {target}")
    metrics["experiments.in_window_rows"] = traced["outcome"].in_window_rows
    metrics["experiments.bytes_written"] = traced["bytes_written"]
    attributed = sum(v for k, v in metrics.items() if unit_of(k) == "s")
    metrics.update({
        "trace.wall_s": traced["wall"],
        "trace.untraced_wall_s": plain["wall"],
        "trace.overhead_s": traced["wall"] - plain["wall"],
        "trace.overhead_frac": (traced["wall"] - plain["wall"]) / plain["wall"],
        "trace.unattributed_s": traced["wall"] - attributed,
        "trace.attributed_frac": attributed / traced["wall"],
    })
    metrics.update(extra)
    problems = check_exact_counters(args.workload, args.seed, args.iters, metrics)
    if output_bytes(os.path.join(base, "untraced")) != output_bytes(os.path.join(base, "traced")):
        problems.append("the traced pass wrote other outputs than the untraced one")
    print(f"layer self times, share of the traced wall {traced['wall']:.3f} s:")
    for name in sorted(metrics):
        if unit_of(name) == "s" and not name.startswith("trace."):
            print(f"  {name:28s} {metrics[name]:9.3f} s  {metrics[name] / traced['wall']:6.1%}")
    for name, value in metrics.items():
        show(name, value)
    finish(2, problems, attempted, failed, metrics)
    return 0


def show(name, value):
    text = str(value) if isinstance(value, int) else f"{value:.6g}"
    print(f"{name} = {text} {unit_of(name)}")


def finish(self_checks, problems, attempted, failed, metrics):
    """Print the result line; the run's self-checks count as operations."""
    for problem in problems:
        print(f"FAIL {problem}")
    attempted += self_checks
    failed += len(problems)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
