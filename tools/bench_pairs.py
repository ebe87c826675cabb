"""Compare the benchmark's end-to-end metrics at a git revision and in the
working tree, in alternating pairs of perfbench runs.

    python3 tools/bench_pairs.py REV WORKLOAD --pairs N --seed S

Extracts ``git archive REV`` into a temporary directory, as
``same_outputs.py`` does, then runs ``perfbench/run.py --workload WORKLOAD
--seed S --seconds 10 --trace 0`` from that copy and from the working tree
in N pairs; the side that runs first alternates from pair to pair.  Each
side runs its own ``perfbench/`` on its own ``src/``.  For each end-to-end
metric named in the tree's ``BENCHMARK.json`` it prints both sides'
medians and quartiles and in how many pairs the tree did better (ties
count for neither side).  Exits 0 when every run reported 0 failed
operations, 1 when a run failed or failed operations, and 2 with one line
when REV cannot be read.  Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_outputs import ROOT, extract

SECONDS = 10


def run_perfbench(tree, workload, seed):
    """One untraced perfbench run from ``tree``: its result object (the
    JSON last line), or None when the run failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        print(f"perfbench failed in {tree}: {proc.stderr.strip()}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values):
    """(lower quartile, median, upper quartile) of ``values``."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(rev, metrics, old, new):
    """One line per metric: both sides' quartiles and the pairs the tree
    won.  ``metrics`` is a list of (name, unit, better), ``better`` being
    "lower" or "higher"; ``old`` and ``new`` hold one {name: value} per
    run, pair k being (old[k], new[k])."""
    lines = []
    for name, unit, better in metrics:
        before = [run[name] for run in old]
        after = [run[name] for run in new]
        sign = 1.0 if better == "lower" else -1.0
        won = sum(sign * (b - a) > 0.0 for a, b in zip(after, before))
        (b1, b2, b3), (a1, a2, a3) = quartiles(before), quartiles(after)
        change = f"{(a2 - b2) / b2:+.1%}" if b2 else "n/a"
        lines.append(f"{name} ({unit}, {better} is better): median {b2:.4g} [{b1:.4g}, {b3:.4g}]"
                     f" at {rev}, {a2:.4g} [{a1:.4g}, {a3:.4g}] in the tree ({change}); "
                     f"the tree won {won} of {len(before)} pairs")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare the working tree against")
    parser.add_argument("workload", help="a workload of perfbench/run.py")
    parser.add_argument("--pairs", type=int, required=True, help="pairs of runs (at least 1)")
    parser.add_argument("--seed", type=int, required=True, help="perfbench's --seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    old, new, failed = [], [], 0
    with tempfile.TemporaryDirectory() as tmp:
        rev_tree = Path(tmp)
        extract(args.rev, rev_tree)
        for k in range(args.pairs):
            order = (rev_tree, ROOT) if k % 2 == 0 else (ROOT, rev_tree)
            results = {tree: run_perfbench(tree, args.workload, args.seed) for tree in order}
            failed += sum(result is None or result["failed"] > 0 for result in results.values())
            if None not in results.values():
                old.append({name: results[rev_tree]["metrics"][name]["value"]
                            for name, _, _ in metrics})
                new.append({name: results[ROOT]["metrics"][name]["value"]
                            for name, _, _ in metrics})
            print(f"pair {k + 1} of {args.pairs} done", file=sys.stderr)
    if old:
        for line in summary(args.rev, metrics, old, new):
            print(line)
    print(f"{args.workload}, seed {args.seed}: {len(old)} complete pairs, {failed} runs failed "
          f"or failed operations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
