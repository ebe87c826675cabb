"""``tools/same_outputs.py`` ends with exit code 2 and one line when it has
nothing to compare, apart from 1, which means that outputs differ."""

import ast
import importlib.util
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
    old = {(command, seed): (0, "", {}, 30.0 + k + seed / 8)
           for k, command in enumerate(commands) for seed in same_outputs.SEEDS}
    new = {key: (0, "", {}, rss - 1.0) for key, (*_, rss) in old.items()}
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
    (code, stdout, bare), (big_code, big_stdout, big) = ast.literal_eval(proc.stdout)
    assert (code, stdout, big_code, big_stdout) == (3, "ok\n", 0, "")
    # the 60 MB bytearray, and not much more
    assert 50.0 < big - bare < 70.0


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


def test_pairs_bad_revision_is_named():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "nosuchrev",
                           "noise3", "--pairs", "1", "--seed", "0"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("cannot read revision nosuchrev: ")
    assert proc.stderr.count("\n") == 1
