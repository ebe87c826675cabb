"""Every definition in src/ serves the pipeline: no code that only the unit
tests call.  A top-level function or class, or a public method, must be
referenced from src/, perfbench/ or the acceptance gate, or be exported in
``dualspike.__all__``; every defaulted parameter must be set by some call
there, or it is a constant, and left to its default by some call there,
or the default is dead.  And src/ imports nothing from scipy: the
runtime is numpy alone, and a serial command loads no multiprocessing."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dualspike

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dualspike"
# the console-script entry point is named in pyproject.toml, not in code
EXEMPT = {"cli.main"}
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(path):
    """(qualified name, bare name) of the top-level functions and classes of
    one module and of the public methods of its classes."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def referenced_names(paths):
    """Identifiers used as names, attributes, imports or in dotted string
    constants (perfbench names its wrap targets in strings)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _DOTTED.fullmatch(node.value)):
                names.update(node.value.split("."))
    return names


def unreferenced(package, users, exported):
    used = referenced_names(users)
    return sorted(qual for path in sorted(package.glob("*.py"))
                  for qual, name in definitions(path)
                  if name not in used and name not in exported and qual not in EXEMPT)


def _users():
    return [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
            ROOT / "tests" / "test_acceptance.py"]


def test_no_test_only_code_in_src():
    assert unreferenced(PACKAGE, _users(), set(dualspike.__all__)) == []


def defaulted_parameters(path):
    """(qualified name, label, callee name, parameters) of each top-level
    function and method of one module with defaulted parameters.  A call to
    ``__init__`` is a call to the class.  ``parameters`` holds (name,
    position): the index of the call argument that sets it by position, None
    for a keyword-only one."""
    module = path.stem
    functions = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node.name, node.name, node, 0))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    method = f"{node.name}.{item.name}"
                    if item.name == "__init__":
                        functions.append((method, node.name, node.name, item, 1))
                    else:
                        functions.append((method, method, item.name, item, 1))
    for name, label, callee, func, bound in functions:
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        params = [(arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first]
        params += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None]
        if params:
            yield f"{module}.{name}", label, callee, params


def calls_by_callee(paths):
    """Callee name -> (count of leading positional arguments, keyword names)
    of every call in ``paths``.  The arguments from a ``*`` unpacking on,
    and ``**`` mappings, set no parameter the guard can name."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            positional = next((i for i, arg in enumerate(node.args)
                               if isinstance(arg, ast.Starred)), len(node.args))
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            calls.setdefault(callee, []).append((positional, keywords))
    return calls


def _defaults_where(package_paths, users, picked):
    """``label(names)`` for each function with defaulted parameters for which
    ``picked(setting)`` holds, ``setting`` listing, per call in ``users``,
    whether it sets the parameter, by position or by keyword."""
    calls = calls_by_callee(users)
    found = []
    for path in package_paths:
        for qual, label, callee, params in defaulted_parameters(path):
            seen = calls.get(callee, [])
            names = [name for name, position in params
                     if picked([name in keywords
                                or (position is not None and positional > position)
                                for positional, keywords in seen])]
            if names and qual not in EXEMPT:
                found.append(f"{label}({', '.join(names)})")
    return found


def unset_defaults(package_paths, users):
    """Defaulted parameters no call in ``users`` sets."""
    return _defaults_where(package_paths, users, lambda setting: not any(setting))


def overridden_defaults(package_paths, users):
    """Defaulted parameters that every call in ``users`` sets, when there is
    one: a default no call relies on."""
    return _defaults_where(package_paths, users,
                           lambda setting: bool(setting) and all(setting))


def test_no_parameter_only_tests_set():
    # an option nothing in the pipeline sets is a constant
    assert unset_defaults(sorted(PACKAGE.glob("*.py")), _users()) == []


def test_unset_defaults_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("def scale(x, factor=2.0, offset=0.0, *, clip=None):\n"
                      "    return factor * x + offset\n"
                      "class Grid:\n"
                      "    def __init__(self, n, step=1.0):\n"
                      "        self.n = n\n"
                      "    def at(self, i, order=0):\n"
                      "        return i\n"
                      "scale(1.0, 3.0)\n"
                      "scale(*[1.0, 2.0, 3.0], **{'clip': 1.0})\n"
                      "Grid(4, 0.5).at(1)\n")
    assert unset_defaults([module], [module]) == [
        "scale(offset, clip)", "Grid.at(order)"]


def test_no_default_every_call_overrides():
    # a default that every pipeline call replaces is a second, dead copy
    assert overridden_defaults(sorted(PACKAGE.glob("*.py")), _users()) == []


def test_overridden_defaults_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("def scale(x, factor=2.0, offset=0.0, *, clip=None):\n"
                      "    return factor * x + offset\n"
                      "class Grid:\n"
                      "    def __init__(self, n, step=1.0):\n"
                      "        self.n = n\n"
                      "    def at(self, i, order=0):\n"
                      "        return i\n"
                      "def unused(x, y=1):\n"
                      "    return x\n"
                      "scale(1.0, 3.0, clip=1.0)\n"
                      "scale(2.0, factor=1.0, clip=2.0)\n"
                      "Grid(4, 0.5).at(1, order=2)\n"
                      "Grid(*[4, 0.5]).at(2, 0)\n")
    assert overridden_defaults([module], [module]) == ["scale(factor, clip)", "Grid.at(order)"]


def scipy_imports(paths):
    """Imports of scipy or of anything in it, as (file name, dotted name)
    pairs."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found.extend((path.name, name) for name in names if name.split(".")[0] == "scipy")
    return found


def test_no_scipy_in_src():
    # scipy costs each command process about 0.6 s of imports and 40 MB
    assert scipy_imports(sorted(PACKAGE.glob("*.py"))) == []


def test_scipy_imports_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import scipy.optimize._highspy._core\n"
                      "from scipy.optimize import nnls\n"
                      "from scipy import linalg\n"
                      "import scipy\n"
                      "from . import scipy_like\n"
                      "import numpy.linalg\n")
    assert scipy_imports([module]) == [
        ("module.py", "scipy.optimize._highspy._core"),
        ("module.py", "scipy.optimize.nnls"),
        ("module.py", "scipy.linalg"),
        ("module.py", "scipy")]


TINY_CONFIG = """\
sources = 0.5
amplitudes = 1.0
sigma = 0.1
m = 7
tau = 100
pi = 2
seed = 3
"""

SERIAL_SWEEP = """\
import sys
from dualspike.cli import main
assert main(["exp-noise", "--config", sys.argv[1], "--out", sys.argv[2], "--iters", "20"]) == 0
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("scipy", "multiprocessing", "concurrent")))
"""


def test_a_solve_loads_no_scipy(tmp_path):
    # a serial noise sweep from the command line, in a fresh interpreter:
    # its solves, projections and LPs never import scipy, and one worker
    # never imports multiprocessing (about 30 ms per process)
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    result = subprocess.run([sys.executable, "-c", SERIAL_SWEEP, str(config), str(tmp_path)],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert result.stdout.strip().splitlines()[-1] == "[]"


NO_OPENSSL = """\
import sys
from dualspike.cli import main
loaded = []
for command, iters in (("solve", "280"), ("exp-lambda-t", "280"), ("exp-t-a", "280"),
                       ("bounds", "280"), ("exp-noise", "20")):
    assert main([command, "--config", sys.argv[1], "--out", sys.argv[2], "--iters", iters]) == 0
    loaded.append((command, [name for name in ("_hashlib", "numpy.random") if name in sys.modules]))
print(loaded)
"""


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="this interpreter has no built-in SHA-256")
def test_commands_load_no_openssl(tmp_path):
    # every command, in a fresh interpreter: the config digest comes from
    # the built-in SHA-256 and the sweep noise from the package's own PCG64,
    # so no command maps OpenSSL through hashlib (about 3.5 MB of every
    # process) or loads numpy.random, which maps it through secrets and hmac
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    result = subprocess.run([sys.executable, "-c", NO_OPENSSL, str(config), str(tmp_path)],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert ast.literal_eval(result.stdout.strip().splitlines()[-1]) == [
        (command, []) for command in ("solve", "exp-lambda-t", "exp-t-a", "bounds", "exp-noise")]
