"""Compare the benchmark's end-to-end metrics at a git revision and in the
working tree, in alternating pairs of perfbench runs.

    python3 tools/bench_pairs.py REV WORKLOAD --pairs N --seed S

Extracts ``git archive REV`` into a temporary directory and copies the
working tree's files into a second one, as ``same_outputs.py`` does, so
that both sides run from paths of the same length: the path alone moves
``peak_rss_mb``.  It then runs ``perfbench/run.py
--workload WORKLOAD --seed S --seconds 10 --trace 0`` from each copy in N
pairs; the side that runs first alternates from pair to pair.  Each side
runs its own ``perfbench/`` on its own ``src/``.  Every run writes its
bytecode to a cache inside its side's copy (``PYTHONPYCACHEPREFIX``), with
``PYTHONDONTWRITEBYTECODE`` left out of its environment, and one untimed
run per side fills that cache before the pairs: set-up time and peak RSS
then do not move with the length of the source text, whatever this shell
sets.  The first line of the output states that policy.  For each end-to-end
metric named in the tree's ``BENCHMARK.json`` it prints both sides'
medians and quartiles and in how many pairs the tree did better (ties
count for neither side), then a verdict per metric: "claim met" when the
tree did better in at least 9 of 10 pairs and its median beats the
parent's by more than the parent's interquartile range; its mirror,
"worse", when the parent did better in at least 9 of 10 pairs and its
median beats the tree's by more than the tree's interquartile range;
else "not met"; with fewer than 10 complete pairs, "unresolved".  Exits
0 when every run reported 0 failed operations, 1 when a run failed or
failed operations, and 2 with one line when REV cannot be read.  Standard
library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_outputs import ROOT, bytecode_env, bytecode_policy, copy_tree, extract

SECONDS = 10


def run_perfbench(tree, workload, seed):
    """One untraced perfbench run from ``tree``, its bytecode cached there
    (``bytecode_env``): its result object (the JSON last line), or None
    when the run failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=tree, env=bytecode_env(tree), capture_output=True, text=True)
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


# a claimed gain (or a loss): one side does better in at least this share
# of the pairs, and at least this many pairs ran
CLAIM_WINS = 0.9
CLAIM_PAIRS = 10


def compare(before, after, better):
    """(pairs the tree won, pairs the parent won, the parent's quartiles,
    the tree's quartiles); pair k is (before[k], after[k]) and ``better``
    is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (b - a) > 0.0 for a, b in zip(after, before))
    lost = sum(sign * (a - b) > 0.0 for a, b in zip(after, before))
    return won, lost, quartiles(before), quartiles(after)


def summary(rev, metrics, old, new):
    """One line per metric: both sides' quartiles and the pairs the tree
    won.  ``metrics`` is a list of (name, unit, better), ``better`` being
    "lower" or "higher"; ``old`` and ``new`` hold one {name: value} per
    run, pair k being (old[k], new[k])."""
    lines = []
    for name, unit, better in metrics:
        won, _, (b1, b2, b3), (a1, a2, a3) = compare([run[name] for run in old],
                                                     [run[name] for run in new], better)
        change = f"{(a2 - b2) / b2:+.1%}" if b2 else "n/a"
        lines.append(f"{name} ({unit}, {better} is better): median {b2:.4g} [{b1:.4g}, {b3:.4g}]"
                     f" at {rev}, {a2:.4g} [{a1:.4g}, {a3:.4g}] in the tree ({change}); "
                     f"the tree won {won} of {len(old)} pairs")
    return lines


def verdicts(metrics, old, new):
    """One line per metric, as ``summary`` takes them: "claim met" when the
    tree won at least ``CLAIM_WINS`` of the pairs and its median is better
    than the parent's by more than the parent's interquartile range;
    "worse", the mirror, when the parent won at least ``CLAIM_WINS`` of the
    pairs and its median is better than the tree's by more than the tree's
    interquartile range; else "not met"; "unresolved" with fewer than
    ``CLAIM_PAIRS`` pairs."""
    lines = []
    pairs = len(old)
    for name, _, better in metrics:
        won, lost, (b1, b2, b3), (a1, a2, a3) = compare([run[name] for run in old],
                                                        [run[name] for run in new], better)
        gain = (b2 - a2) if better == "lower" else (a2 - b2)
        detail = (f"won {won} of {pairs} pairs, median gain {gain:.4g} against a parent "
                  f"interquartile range of {b3 - b1:.4g}")
        if pairs < CLAIM_PAIRS:
            verdict = f"unresolved ({pairs} pairs, {CLAIM_PAIRS} needed)"
        elif won >= CLAIM_WINS * pairs and gain > b3 - b1:
            verdict = "claim met"
        elif lost >= CLAIM_WINS * pairs and -gain > a3 - a1:
            verdict = "worse"
            detail = (f"lost {lost} of {pairs} pairs, median loss {-gain:.4g} against a tree "
                      f"interquartile range of {a3 - a1:.4g}")
        else:
            verdict = "not met"
        lines.append(f"{name}: {verdict} ({detail})")
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
    with tempfile.TemporaryDirectory() as rev_tmp, tempfile.TemporaryDirectory() as tree_tmp:
        rev_tree, tree = Path(rev_tmp), Path(tree_tmp)
        extract(args.rev, rev_tree)
        copy_tree(ROOT, tree)
        print(bytecode_policy((rev_tree, tree)), flush=True)
        # one untimed run per side fills its bytecode cache
        for side in (rev_tree, tree):
            run_perfbench(side, args.workload, args.seed)
        for k in range(args.pairs):
            order = (rev_tree, tree) if k % 2 == 0 else (tree, rev_tree)
            results = {side: run_perfbench(side, args.workload, args.seed) for side in order}
            failed += sum(result is None or result["failed"] > 0 for result in results.values())
            if None not in results.values():
                old.append({name: results[rev_tree]["metrics"][name]["value"]
                            for name, _, _ in metrics})
                new.append({name: results[tree]["metrics"][name]["value"]
                            for name, _, _ in metrics})
            print(f"pair {k + 1} of {args.pairs} done", file=sys.stderr)
    if old:
        for line in summary(args.rev, metrics, old, new) + verdicts(metrics, old, new):
            print(line)
    print(f"{args.workload}, seed {args.seed}: {len(old)} complete pairs, {failed} runs failed "
          f"or failed operations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
