"""``tools/same_outputs.py`` ends with exit code 2 and one line when it has
nothing to compare, apart from 1, which means that outputs differ."""

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
