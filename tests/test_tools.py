"""``tools/same_outputs.py`` ends with exit code 2 and one line when it has
nothing to compare, apart from 1, which means that outputs differ."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "same_outputs.py"


def load_same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bad_revision_is_named():
    proc = subprocess.run([sys.executable, str(SCRIPT), "nosuchrev"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("cannot read revision nosuchrev: ")
    assert "Traceback" not in proc.stderr


def test_package_from_outside_the_tree(tmp_path, capsys):
    # a tree without src/dualspike: its side would run some other copy
    same_outputs = load_same_outputs()
    with pytest.raises(SystemExit) as exit_info:
        same_outputs.run_all(tmp_path, tmp_path / "out")
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(tmp_path) in err
    assert not (tmp_path / "out").exists()


def test_peak_rss_is_the_largest_over_the_seeds():
    same_outputs = load_same_outputs()
    commands = [args[0] for _, args in same_outputs.COMMANDS]
    old = {(command, seed): (0, "", {}, 30.0 + k + seed / 8, 15.0)
           for k, command in enumerate(commands) for seed in same_outputs.SEEDS}
    new = {key: (0, "", {}, rss - 1.0, own) for key, (*_, rss, own) in old.items()}
    top = 30.0 + max(same_outputs.SEEDS) / 8
    assert same_outputs.peak_rss("abc123", old, new) == [
        f"{command}: peak RSS {top + k:.2f} MB at abc123, {top + k - 1.0:.2f} MB in the tree"
        for k, command in enumerate(commands)]


def test_run_reports_exit_code_stdout_and_peak_rss():
    # a child's peak RSS counts its parent's at the spawn, so the children
    # are run from a bare interpreter, not from the test process
    probe = ("import runpy, sys; run = runpy.run_path(sys.argv[1])['run']; "
             "print([run([sys.executable, '-c', child]) for child in sys.argv[2:]])")
    children = ["import sys; print('ok'); sys.exit(3)", "b = bytearray(60 << 20)"]
    proc = subprocess.run([sys.executable, "-c", probe, str(SCRIPT), *children], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    (code, stdout, bare, _), (big_code, big_stdout, big, _) = ast.literal_eval(proc.stdout)
    assert (code, stdout, big_code, big_stdout) == (3, "ok\n", 0, "")
    # the 60 MB bytearray, and not much more
    assert 50.0 < big - bare < 70.0


def test_peak_rss_below_the_spawners_is_unresolved():
    # a parent holding 80 MB spawns an empty child, whose reading is the
    # parent's peak, not its own; a 120 MB child reads its own
    probe = ("import runpy, sys; run = runpy.run_path(sys.argv[1])['run']; "
             "held = bytearray(80 << 20); "
             "print([run([sys.executable, '-c', child]) for child in sys.argv[2:]])")
    children = ["pass", "b = bytearray(120 << 20)"]
    proc = subprocess.run([sys.executable, "-c", probe, str(SCRIPT), *children], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    (_, _, empty, own), (_, _, big, big_own) = ast.literal_eval(proc.stdout)
    assert own > 80.0 and empty <= own
    assert big > big_own
    same_outputs = load_same_outputs()
    commands = [args[0] for _, args in same_outputs.COMMANDS]
    old = {(command, seed): (0, "", {}, empty, own) for command in commands
           for seed in same_outputs.SEEDS}
    new = {(command, seed): (0, "", {}, big if seed == 1 else empty, own)
           for command in commands for seed in same_outputs.SEEDS}
    assert same_outputs.peak_rss("abc123", old, new) == [
        f"{command}: peak RSS <= {empty:.2f} MB at abc123, {big:.2f} MB in the tree"
        for command in commands]


STUB_CLI = """\
import sys
from pathlib import Path

args = sys.argv[1:]
out = Path(args[args.index("--out") + 1])
out.mkdir(parents=True, exist_ok=True)
with open(out / "order.txt", "a") as fh:
    fh.write(args[0] + "\\n")
written = [out / f"{args[0]}.txt"]
written[0].write_text(args[args.index("--seed") + 1])
if RECORD and args[0] == "exp-lambda-t":
    written.insert(0, out / "reference.csv")
    written[0].write_text("record")
for path in written:
    print(path)
"""


def stub_tree(root, record):
    """A tree whose dualspike.cli writes one file per command into --out,
    logs the commands run there, and, with ``record``, writes
    reference.csv from exp-lambda-t."""
    package = root / "src" / "dualspike"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(f"RECORD = {record}\n{STUB_CLI}")
    return root


def test_shared_directory_pass(tmp_path):
    same_outputs = load_same_outputs()
    old = same_outputs.run_all(stub_tree(tmp_path / "old", False), tmp_path / "out-old")
    new = same_outputs.run_all(stub_tree(tmp_path / "new", True), tmp_path / "out-new")
    seeds = same_outputs.SEEDS
    shared = ["exp-lambda-t", "exp-t-a", "bounds", "exp-noise"]
    assert set(new) == {(args[0], seed) for _, args in same_outputs.COMMANDS for seed in seeds} | {
        (f"shared {command}", seed) for command in shared for seed in seeds}
    for seed in seeds:
        # one directory: every command's file, in the pass's order
        files = new["shared exp-noise", seed][2]
        assert files["order.txt"] == "".join(f"{c}\n" for c in shared).encode()
        assert {f"{c}.txt" for c in shared} < files.keys()
        assert all(not new[f"shared {c}", seed][2] for c in shared[:-1])
        assert new["shared exp-t-a", seed][1] == "exp-t-a.txt\n"
    assert same_outputs.differences("abc123", old, new) == [
        line for seed in seeds for line in (
            f"exp-lambda-t seed {seed}: stdout differs",
            f"exp-lambda-t seed {seed}: reference.csv written only in the tree")] + [
        line for seed in seeds for line in (
            f"shared exp-lambda-t seed {seed}: stdout differs",
            f"shared exp-noise seed {seed}: reference.csv written only in the tree")]


def test_a_record_that_differs_only_in_its_key_is_named():
    same_outputs = load_same_outputs()
    record = b"# key=0123456789abcdef rows=2\nlam_1,lam_2\n0.5,1.0\n0.25,2.0\n"

    def results(*records):
        return {("bounds", seed): (0, "", {"reference.csv": data}, 30.0, 15.0)
                for seed, data in enumerate(records)}

    old = results(record, record)
    new = results(record.replace(b"0123456789abcdef", b"fedcba9876543210"),
                  record.replace(b"0.25", b"0.26"))
    assert same_outputs.differences("abc123", old, new) == [
        "bounds seed 0: reference.csv differs only in its key line",
        "bounds seed 1: reference.csv differs"]


def test_solve_lengths_are_named():
    # iterations from convergence.csv's rows or reference.csv's rows=; a
    # line only where the two sides differ, a side without either as None
    same_outputs = load_same_outputs()
    convergence = b"# config=0123456789ab seed=0 rng=pcg64\niter,upper,lower,gap\n" + b"".join(
        b"%d,1.0,0.5,0.5\n" % k for k in range(1, 4))
    record = b"# config=0123456789ab seed=0 rng=pcg64\n# key=0123456789abcdef rows=98\nlam_1\n"
    old = {("solve", 0): (0, "", {"convergence.csv": convergence}, 30.0, 15.0),
           ("solve", 1): (0, "", {"convergence.csv": convergence}, 30.0, 15.0),
           ("bounds", 0): (0, "", {"reference.csv": record}, 30.0, 15.0),
           ("bounds", 1): (0, "", {"reference.csv": record}, 30.0, 15.0),
           ("exp-t-a", 0): (0, "", {"exp_t_a.csv": b""}, 30.0, 15.0)}
    new = dict(old)
    new["solve", 1] = (0, "", {"convergence.csv": convergence + b"4,1.0,0.5,0.5\n"}, 30.0, 15.0)
    new["bounds", 0] = (0, "", {"reference.csv": record.replace(b"=98", b"=117")}, 30.0, 15.0)
    new["bounds", 1] = (3, "", {}, 30.0, 15.0)
    assert same_outputs.solve_lengths("abc123", old, new) == [
        "solve seed 1: the solve ran 3 iterations at abc123, 4 in the tree",
        "bounds seed 0: the solve ran 98 iterations at abc123, 117 in the tree",
        "bounds seed 1: the solve ran 98 iterations at abc123, None in the tree"]


def test_shared_solves_are_counted(monkeypatch, capsys):
    # a shared command that solved lists reference.csv on stdout; the count
    # informs, and identical outputs still exit 0
    same_outputs = load_same_outputs()

    def results(solving):
        found = {(args[0], seed): (0, "reference.csv\n", {}, 30.0, 15.0)
                 for _, args in same_outputs.COMMANDS for seed in same_outputs.SEEDS}
        for seed in same_outputs.SEEDS:
            for _, args in same_outputs.SHARED:
                stdout = f"reference.csv\n{args[0]}.csv\n" if args[0] in solving else ""
                found[f"shared {args[0]}", seed] = 0, stdout, {}, 30.0, 15.0
        return found

    old, new = results({"exp-lambda-t", "exp-noise"}), results({"exp-lambda-t"})
    assert same_outputs.shared_solves("abc123", old, new) == [
        f"shared pass seed {seed}: reference solves 2 at abc123, 1 in the tree"
        for seed in same_outputs.SEEDS]
    monkeypatch.setattr(same_outputs, "run_all", lambda tree, out_root: results({"bounds"}))
    monkeypatch.setattr(same_outputs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(same_outputs, "copy_tree", lambda root, dest: None)
    assert same_outputs.main(["abc123"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[len(same_outputs.COMMANDS):-1] == [
        f"shared pass seed {seed}: reference solves 1 at abc123, 1 in the tree"
        for seed in same_outputs.SEEDS]


SWEEP = b"# config=0123456789ab seed=0 rng=pcg64\nw_c,loc_err,note\n0.002,1.5e-08,\n0.1,2.5e-07,\n"


def test_numeric_difference_is_sized(monkeypatch, capsys):
    # the report sits under the "differs" line and leaves the verdict and
    # the exit code alone
    same_outputs = load_same_outputs()
    changed = SWEEP.replace(b"2.5e-07", b"2.5000000000000004e-07")
    assert same_outputs.csv_changes("abc123", SWEEP, changed) == [
        "loc_err: largest difference 5.29e-23 absolute, 2.12e-16 relative (1 of 2 rows differ)"]
    assert same_outputs.csv_changes("abc123", SWEEP, SWEEP.replace(b"seed=0", b"seed=1")) == [
        "every value is the same: only lines starting with # differ"]

    def run_all(tree, out_root):
        files = {"exp_noise.csv": changed if "new" in tree.name else SWEEP,
                 "bounds_report.txt": b"sigma = 0.07\n" if "new" in tree.name else b""}
        return {(args[0], seed): (0, "", files, 30.0, 15.0)
                for _, args in same_outputs.COMMANDS for seed in same_outputs.SEEDS}

    monkeypatch.setattr(same_outputs, "run_all", run_all)
    monkeypatch.setattr(same_outputs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(same_outputs, "copy_tree", lambda root, dest: None)
    assert same_outputs.main(["abc123"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[out.index("solve seed 0: bounds_report.txt differs") + 1:][:2] == [
        "solve seed 0: exp_noise.csv differs",
        "    loc_err: largest difference 5.29e-23 absolute, 2.12e-16 relative "
        "(1 of 2 rows differ)"]
    assert sum(line.startswith("    ") for line in out) == len(same_outputs.COMMANDS) * len(
        same_outputs.SEEDS)


def test_non_numeric_column_is_counted():
    same_outputs = load_same_outputs()
    changed = SWEEP.replace(b"0.1,2.5e-07,", b"0.1,2.5e-07,refine_failed")
    assert same_outputs.csv_changes("abc123", SWEEP, changed) == [
        "note: 1 of 2 rows differ, not all numbers"]


def test_added_row_is_named():
    same_outputs = load_same_outputs()
    assert same_outputs.csv_changes("abc123", SWEEP, SWEEP + b"0.2,3e-07,\n") == [
        "rows: 2 at abc123, 3 in the tree"]


def test_tree_side_runs_from_a_copy(monkeypatch, capsys):
    # both sides run from temporary copies whose paths, and output paths,
    # have one length: the tree's side holds the tree's files
    same_outputs = load_same_outputs()
    sides = []

    def run_all(tree, out_root):
        source = (tree / "tools" / "same_outputs.py").read_bytes()
        sides.append((str(tree), str(out_root), source))
        return {(args[0], seed): (0, "", {}, 30.0, 15.0)
                for _, args in same_outputs.COMMANDS for seed in same_outputs.SEEDS}

    monkeypatch.setattr(same_outputs, "run_all", run_all)
    assert same_outputs.main(["HEAD"]) == 0
    (rev, rev_out, _), (tree, tree_out, source) = sides
    assert not Path(tree).is_relative_to(ROOT)
    assert Path(tree).parent == Path(rev).parent
    assert (len(tree), len(tree_out)) == (len(rev), len(rev_out))
    assert source == SCRIPT.read_bytes()
    assert capsys.readouterr().out.splitlines()[-1].startswith("identical: ")


def load_bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_summary(monkeypatch):
    bench_pairs = load_bench_pairs(monkeypatch)
    metrics = [("wall_s", "s", "lower"), ("hits", "count", "higher")]
    old = [{"wall_s": w, "hits": 5.0} for w in (2.0, 2.2, 2.4, 2.6, 2.8)]
    # better, tied, worse, better, better; hits tie but in one pair
    new = [{"wall_s": w, "hits": h} for w, h in
           ((1.9, 5.0), (2.2, 5.0), (2.5, 6.0), (2.0, 5.0), (2.1, 5.0))]
    assert bench_pairs.summary("abc123", metrics, old, new) == [
        "wall_s (s, lower is better): median 2.4 [2.2, 2.6] at abc123, 2.1 [2, 2.2] in the "
        "tree (-12.5%); the tree won 3 of 5 pairs",
        "hits (count, higher is better): median 5 [5, 5] at abc123, 5 [5, 5] in the tree "
        "(+0.0%); the tree won 1 of 5 pairs"]
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_pairs_verdicts(monkeypatch):
    bench_pairs = load_bench_pairs(monkeypatch)
    metrics = [("wall_s", "s", "lower"), ("rows", "count", "higher"),
               ("cpu_s", "s", "lower"), ("rss", "MB", "lower")]
    # the parent's quartiles are 1.225, 1.45 and 1.675: an IQR of 0.45
    parent = [1.0 + k / 10 for k in range(10)]
    old = [{"wall_s": v, "rows": -v, "cpu_s": v, "rss": v} for v in parent]
    new = [{"wall_s": 0.9, "rows": 0.0, "cpu_s": v - 1.0, "rss": v - 0.1} for v in parent]
    # wall_s: pair 1 ties, 9 of 10 won, median gain 0.55; rows: all won
    new[0]["wall_s"] = 1.0
    # cpu_s: a large gain, but 8 of 10 won; rss: all won, by less than the IQR
    new[0]["cpu_s"], new[1]["cpu_s"] = 2.0, 2.1
    assert bench_pairs.verdicts(metrics, old, new) == [
        "wall_s: claim met (won 9 of 10 pairs, median gain 0.55 against a parent "
        "interquartile range of 0.45)",
        "rows: claim met (won 10 of 10 pairs, median gain 1.45 against a parent "
        "interquartile range of 0.45)",
        "cpu_s: not met (won 8 of 10 pairs, median gain 0.8 against a parent "
        "interquartile range of 0.45)",
        "rss: not met (won 10 of 10 pairs, median gain 0.1 against a parent "
        "interquartile range of 0.45)"]


def test_pairs_verdicts_need_ten_pairs(monkeypatch):
    # six pairs all won by far more than the IQR are not yet a claim
    bench_pairs = load_bench_pairs(monkeypatch)
    old = [{"rss": 35.0 + k / 100} for k in range(6)]
    new = [{"rss": run["rss"] - 0.5} for run in old]
    assert bench_pairs.verdicts([("rss", "MB", "lower")], old, new) == [
        "rss: unresolved (6 pairs, 10 needed) (won 6 of 6 pairs, median gain 0.5 against a "
        "parent interquartile range of 0.025)"]


def test_pairs_worse_verdict(monkeypatch):
    # the mirror of "claim met": the parent won at least 9 of 10 pairs and
    # its median beats the tree's by more than the tree's IQR
    bench_pairs = load_bench_pairs(monkeypatch)
    metrics = [("wall_s", "s", "lower"), ("rows", "count", "higher"),
               ("rss", "MB", "lower"), ("cpu_s", "s", "lower")]
    # the parent's quartiles are 1.225, 1.45 and 1.675: an IQR of 0.45
    parent = [1.0 + k / 10 for k in range(10)]
    old = [{"wall_s": v, "rows": v, "rss": v, "cpu_s": v} for v in parent]
    # wall_s: all 10 lost by 1.0; rows: 9 lost by 1.0, pair 1 ties; rss:
    # all lost, by 0.55, over the parent's IQR but under the tree's (0.9);
    # cpu_s: lost by 1.0, but in 8 of 10 pairs
    new = [{"wall_s": v + 1.0, "rows": v - 1.0, "rss": 1.1 + k / 5, "cpu_s": v + 1.0}
           for k, v in enumerate(parent)]
    new[0]["rows"] = 1.0
    new[0]["cpu_s"], new[1]["cpu_s"] = 0.5, 0.6
    assert bench_pairs.verdicts(metrics, old, new) == [
        "wall_s: worse (lost 10 of 10 pairs, median loss 1 against a tree interquartile "
        "range of 0.45)",
        "rows: worse (lost 9 of 10 pairs, median loss 0.9 against a tree interquartile "
        "range of 0.45)",
        "rss: not met (won 0 of 10 pairs, median gain -0.55 against a parent interquartile "
        "range of 0.45)",
        "cpu_s: not met (won 2 of 10 pairs, median gain -1 against a parent interquartile "
        "range of 0.45)"]
    # six pairs all lost by far more than the IQR are not yet a verdict
    assert bench_pairs.verdicts(metrics[:1], old[:6], new[:6]) == [
        "wall_s: unresolved (6 pairs, 10 needed) (won 0 of 6 pairs, median gain -1 against a "
        "parent interquartile range of 0.25)"]


def test_pairs_tree_copy(monkeypatch, tmp_path):
    # tracked, staged and untracked files as they are on disk; ignored
    # ones, perfbench/out and a tracked file deleted from disk left out
    bench_pairs = load_bench_pairs(monkeypatch)
    root, dest = tmp_path / "root", tmp_path / "dest"
    files = {"src/a.py": "edited", "tools/new.py": "untracked", "gone.txt": "deleted",
             "perfbench/out/counters.json": "{}", "build/x.o": "ignored",
             ".gitignore": "build/\n"}
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    git = ["git", "-C", str(root)]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "src/a.py", "gone.txt", ".gitignore", "perfbench/out"],
                   check=True)
    (root / "gone.txt").unlink()
    dest.mkdir()
    bench_pairs.copy_tree(root, dest)
    assert sorted(path.relative_to(dest).as_posix() for path in dest.rglob("*")
                  if path.is_file()) == [".gitignore", "src/a.py", "tools/new.py"]
    assert (dest / "src" / "a.py").read_text() == "edited"


def test_pairs_bad_revision_is_named():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "nosuchrev",
                           "noise3", "--pairs", "1", "--seed", "0"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("cannot read revision nosuchrev: ")
    assert proc.stderr.count("\n") == 1


ENV_PROBE = """
import os
(out / "env.txt").write_text(repr((os.environ.get("PYTHONPYCACHEPREFIX"),
                                   "PYTHONDONTWRITEBYTECODE" in os.environ,
                                   sys.dont_write_bytecode)))
"""


def test_children_cache_bytecode_in_their_copy(tmp_path, monkeypatch, capsys):
    # whatever this shell sets, a side's children write their bytecode to a
    # cache inside that side's copy, and the policy is printed to stderr
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    same_outputs = load_same_outputs()
    tree = stub_tree(tmp_path / "tree", False)
    with open(tree / "src" / "dualspike" / "cli.py", "a") as fh:
        fh.write(ENV_PROBE)
    results = same_outputs.run_all(tree, tmp_path / "out")
    cache = tree / same_outputs.PYCACHE
    assert {files["env.txt"] for _, _, files, *_ in results.values() if files} == {
        repr((str(cache), False, False)).encode()}
    assert list(cache.rglob("dualspike/__init__.*.pyc"))
    assert not list(tree.rglob("__pycache__"))

    monkeypatch.setattr(same_outputs, "run_all", lambda tree, out_root: results)
    monkeypatch.setattr(same_outputs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(same_outputs, "copy_tree", lambda root, dest: None)
    assert same_outputs.main(["abc123"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bytecode: ")
    assert "PYTHONPYCACHEPREFIX" in err[0] and "without PYTHONDONTWRITEBYTECODE" in err[0]


STUB_PERFBENCH = """\
import importlib.util, json, os, sys
from pathlib import Path

sys.path.insert(0, "src")
cached = importlib.util.cache_from_source(str(Path("src/probe.py").resolve()))
warm = os.path.exists(cached)
import probe
with open(LOG, "a") as fh:
    fh.write(json.dumps([os.getcwd(), os.environ.get("PYTHONPYCACHEPREFIX"),
                         "PYTHONDONTWRITEBYTECODE" in os.environ, cached, warm]) + "\\n")
print(json.dumps({"failed": 0, "metrics": {"wall_s": {"value": probe.VALUE}}}))
"""


def test_pairs_cache_bytecode_and_warm_it(monkeypatch, tmp_path, capsys):
    # on a throwaway repo whose perfbench imports a module of its src/:
    # each side's runs cache their bytecode in that side's copy, one
    # untimed run per side comes first, and every timed run finds the
    # cache warm
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    bench_pairs = load_bench_pairs(monkeypatch)
    root, log = tmp_path / "root", tmp_path / "runs.log"
    files = {"perfbench/run.py": f"LOG = {str(log)!r}\n{STUB_PERFBENCH}",
             "src/probe.py": "VALUE = 1.0\n",
             "BENCHMARK.json": '{"end_to_end": [{"name": "wall_s", "unit": "s", '
                               '"better": "lower"}]}\n'}
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "."], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "stub"], check=True)
    monkeypatch.setattr(sys.modules["same_outputs"], "ROOT", root)
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    assert bench_pairs.main(["HEAD", "w", "--pairs", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("bytecode: ") and "PYTHONPYCACHEPREFIX" in out[0]
    runs = [json.loads(line) for line in log.read_text().splitlines()]
    sides = sorted({cwd for cwd, *_ in runs})
    assert len(runs) == 6 and len(sides) == 2
    for side in sides:
        mine = [run for run in runs if run[0] == side]
        cache = str(Path(side) / sys.modules["same_outputs"].PYCACHE)
        assert [(prefix, dont) for _, prefix, dont, _, _ in mine] == [(cache, False)] * 3
        assert all(Path(cached).is_relative_to(cache) for *_, cached, _ in mine)
        assert [warm for *_, warm in mine] == [False, True, True]
    # the warm-ups run before any pair
    assert {runs[0][0], runs[1][0]} == set(sides)


LAMBDA_T = (b"# config=0123456789ab seed=0 rng=pcg64\n"
            b"iter,source,loc_err,dual_err,in_window,note\n"
            b"20,1,1e-05,0.5,1,\n20,2,2e-05,0.5,1,\n21,1,,0.4,0,refine_failed\n"
            b"21,2,1e-06,0.4,1,\n")


def test_moved_verdicts_are_listed():
    # rows keyed by iter and source, or by w_c; only in_window and note
    # count, and a row one side lacks is left to the row count
    same_outputs = load_same_outputs()
    moved = (LAMBDA_T.replace(b"20,2,2e-05,0.5,1,", b"20,2,2.5e-05,0.5,0,")
             .replace(b"21,1,,0.4,0,refine_failed", b"21,1,3e-06,0.4,1,")
             .replace(b"21,2,1e-06,0.4,1,\n", b""))
    assert same_outputs.moved_verdicts("abc123", LAMBDA_T, moved, ("iter", "source")) == [
        'iter 20, source 2: in_window "1" at abc123, "0" in the tree',
        'iter 21, source 1: in_window "0" at abc123, "1" in the tree; '
        'note "refine_failed" at abc123, "" in the tree']
    noted = SWEEP.replace(b"0.1,2.5e-07,", b"0.1,,refine_failed")
    assert same_outputs.moved_verdicts("abc123", SWEEP, noted, ("w_c",)) == [
        'w_c 0.1: note "" at abc123, "refine_failed" in the tree']
    # a value that moves without a verdict lists nothing
    assert same_outputs.moved_verdicts("abc123", SWEEP, SWEEP.replace(b"1.5e-08", b"1.6e-08"),
                                       ("w_c",)) == []


def test_moved_verdicts_inform_only(monkeypatch, capsys):
    # under the artifact's "differs" line, after its sizes; the exit code
    # is byte identity's, and other artifacts list no verdicts
    same_outputs = load_same_outputs()
    moved = LAMBDA_T.replace(b"20,2,2e-05,0.5,1,", b"20,2,2e-05,0.5,0,")

    def run_all(tree, out_root):
        new = "new" in tree.name
        files = {"exp_lambda_t.csv": moved if new else LAMBDA_T,
                 "other.csv": moved if new else LAMBDA_T}
        return {(args[0], seed): (0, "", files, 30.0, 15.0)
                for _, args in same_outputs.COMMANDS for seed in same_outputs.SEEDS}

    monkeypatch.setattr(same_outputs, "run_all", run_all)
    monkeypatch.setattr(same_outputs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(same_outputs, "copy_tree", lambda root, dest: None)
    assert same_outputs.main(["abc123"]) == 1
    out = capsys.readouterr().out.splitlines()
    at = out.index("solve seed 0: exp_lambda_t.csv differs")
    assert out[at + 1:at + 4] == [
        "    in_window: largest difference 1 absolute, 1 relative (1 of 4 rows differ)",
        '    iter 20, source 2: in_window "1" at abc123, "0" in the tree',
        "solve seed 0: other.csv differs"]
    assert out[at + 4] == out[at + 1]
