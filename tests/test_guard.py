"""Every definition in src/ serves the pipeline: no code that only the unit
tests call.  A top-level function or class, or a public method, must be
referenced from src/, perfbench/ or the acceptance gate, or be exported in
``dualspike.__all__``; every defaulted parameter must be set by some call
there, or it is a constant, and left to its default by some call there,
or the default is dead; and every attribute a class stores must be read
there.  No module in src/ reaches into another's private names, and no
class there works round a dataclass or defines its own equality or hash.
And src/ imports nothing from scipy: the runtime is numpy alone, a
serial command loads no multiprocessing, and no command loads argparse."""

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


def stored_attributes(path):
    """(qualified name, attribute) of the state each class of one module
    stores: the names its body annotates (a dataclass's fields) and the
    names its methods assign to ``self.name``.  A class whose own methods call ``fields`` lists its
    fields itself, and so reads all of them: it stores nothing the guard
    checks."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
        inner = [sub for method in methods for sub in ast.walk(method)]
        if any(isinstance(sub, ast.Call) and "fields" in (getattr(sub.func, "id", None),
                                                          getattr(sub.func, "attr", None))
               for sub in inner):
            continue
        names = {item.target.id for item in node.body
                 if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
        names.update(sub.attr for sub in inner
                     if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                     and isinstance(sub.value, ast.Name) and sub.value.id == "self")
        for name in sorted(names):
            yield f"{module}.{node.name}.{name}", name


def loaded_names(paths):
    """Attribute names read (``x.name`` in a load) in ``paths``, and the
    names in their dotted string constants, which ``getattr`` reads by."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _DOTTED.fullmatch(node.value)):
                names.update(node.value.split("."))
    return names


def unread_state(package_paths, users):
    """Stored attributes of ``package_paths``' classes that nothing in
    ``users`` loads."""
    loaded = loaded_names(users)
    return [qual for path in package_paths
            for qual, name in stored_attributes(path) if name not in loaded]


def test_no_state_only_tests_read():
    """A stored value nothing in the pipeline reads is work for the tests
    alone.  The guard matches names, not classes, so a name read anywhere
    passes for every class: it cannot see a ``MaximizerSet.curvatures``,
    as ``BoundsReport.curvatures`` is read, nor a ``MeasurementSet.w``,
    as ``open(path, "w")`` names a ``w``."""
    assert unread_state(sorted(PACKAGE.glob("*.py")), _users()) == []


def test_unread_state_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from dataclasses import dataclass, fields\n"
                      "@dataclass(frozen=True)\n"
                      "class Result:\n"
                      "    value: float\n"
                      "    spare: float\n"
                      "    named: float\n"
                      "class Counter:\n"
                      "    def __init__(self):\n"
                      "        self.count = 0\n"
                      "        self.dropped = 0\n"
                      "        self.count += 1\n"
                      "@dataclass\n"
                      "class Report:\n"
                      "    unseen: float\n"
                      "    def lines(self):\n"
                      "        return [getattr(self, f.name) for f in fields(self)]\n"
                      "def use(result, counter):\n"
                      "    return result.value + getattr(result, 'named') + counter.count\n")
    assert unread_state([module], [module]) == ["module.Result.spare", "module.Counter.dropped"]


def dataclass_workarounds(paths):
    """One line per finding in ``paths``: a class decorated ``@dataclass``
    (called or not, by name or through ``dataclasses``) that defines its own
    ``__init__``, and each top-level function or class that calls
    ``object.__setattr__``."""
    found = []
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            label = f"{path.stem}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.ClassDef):
                decorators = [getattr(d, "func", d) for d in node.decorator_list]
                if (any("dataclass" in (getattr(d, "id", None), getattr(d, "attr", None))
                        for d in decorators)
                        and any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
                                for item in node.body)):
                    found.append(f"{label}: @dataclass with its own __init__")
            if any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                   and sub.func.attr == "__setattr__" and isinstance(sub.func.value, ast.Name)
                   and sub.func.value.id == "object" for sub in ast.walk(node)):
                found.append(f"{label}: object.__setattr__")
    return found


def test_no_dataclass_worked_around():
    # a dataclass that writes its own __init__ still has one generated and
    # compiled on every import, and object.__setattr__ writes round the
    # guard a frozen one generates: a plain class needs neither
    assert dataclass_workarounds(sorted(PACKAGE.glob("*.py"))) == []


def test_dataclass_workarounds_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import dataclasses\n"
                      "from dataclasses import dataclass\n"
                      "@dataclass(frozen=True)\n"
                      "class Grid:\n"
                      "    samples: list\n"
                      "    def __init__(self, samples):\n"
                      "        object.__setattr__(self, 'samples', list(samples))\n"
                      "@dataclasses.dataclass\n"
                      "class Box:\n"
                      "    def __init__(self):\n"
                      "        self.size = 0\n"
                      "@dataclass\n"
                      "class Report:\n"
                      "    value: float\n"
                      "    def __post_init__(self):\n"
                      "        self.value = float(self.value)\n"
                      "class Plain:\n"
                      "    def __init__(self, value):\n"
                      "        self.value = value\n"
                      "def thaw(record):\n"
                      "    object.__setattr__(record, 'value', 0)\n"
                      "    setattr(record, 'value', 1)\n")
    assert dataclass_workarounds([module]) == [
        "module.Grid: @dataclass with its own __init__",
        "module.Grid: object.__setattr__",
        "module.Box: @dataclass with its own __init__",
        "module.thaw: object.__setattr__"]


def value_protocols(paths):
    """One line per class in ``paths`` whose body defines ``__eq__`` or
    ``__hash__``, by a ``def`` or an assignment."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            names = set()
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
            found.extend(f"{path.stem}.{node.name}.{name}"
                         for name in ("__eq__", "__hash__") if name in names)
    return found


def test_no_value_protocol_in_src():
    # objects in src/ compare by identity: where a value decides (a
    # kernel's width, a batch's grid), the code compares that value, so
    # one place says what counts as the same
    assert value_protocols(sorted(PACKAGE.glob("*.py"))) == []


def test_value_protocols_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("class Width:\n"
                      "    def __init__(self, sigma):\n"
                      "        self.sigma = sigma\n"
                      "    def __eq__(self, other):\n"
                      "        return self.sigma == other.sigma\n"
                      "    def __hash__(self):\n"
                      "        return hash(self.sigma)\n"
                      "class Unhashable:\n"
                      "    __hash__ = None\n"
                      "class Outer:\n"
                      "    class Inner:\n"
                      "        def __eq__(self, other):\n"
                      "            return True\n"
                      "class Plain:\n"
                      "    def equals(self, other):\n"
                      "        return self is other\n"
                      "def __eq__(left, right):\n"
                      "    return left is right\n")
    assert value_protocols([module]) == [
        "module.Width.__eq__", "module.Width.__hash__", "module.Unhashable.__hash__",
        "module.Inner.__eq__"]


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


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree):
    """The private names (``_x``, not a dunder) a module defines: functions,
    classes, and assigned names and attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return set(filter(_private, names))


def private_uses(tree):
    """The private names a module uses by attribute or by relative import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names.update(alias.name for alias in node.names)
    return set(filter(_private, names))


def foreign_private_uses(paths):
    """(file name, name) for each private name a module of ``paths`` uses
    without defining it, where another module of ``paths`` defines it."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    defined = {path: private_definitions(tree) for path, tree in trees.items()}
    return [(path.name, name) for path, tree in trees.items()
            for name in sorted(private_uses(tree) - defined[path])
            if any(name in names for other, names in defined.items() if other != path)]


def test_no_private_name_crosses_modules():
    # a private name is its module's to change; another module that reads
    # it depends on what that module does not promise
    assert foreign_private_uses(sorted(PACKAGE.glob("*.py"))) == []


def test_foreign_private_uses_are_found(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text("_LIMIT = 3\n"
                     "def _helper(x):\n"
                     "    return x\n"
                     "class Box:\n"
                     "    def __init__(self):\n"
                     "        self._state = 0\n"
                     "    def _inner(self):\n"
                     "        return self._state\n")
    second.write_text("from .first import _helper, Box\n"
                      "from os import _exit\n"
                      "class Crate:\n"
                      "    def _own(self):\n"
                      "        return self._inner\n"
                      "def use(box, crate):\n"
                      "    box._inner()\n"
                      "    crate._own()\n"
                      "    box.__init__()\n"
                      "    return box._state + box._other\n")
    assert foreign_private_uses([first, second]) == [
        ("second.py", "_helper"), ("second.py", "_inner"), ("second.py", "_state")]


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


NO_ARGPARSE = """\
import sys
from dualspike.cli import main
for command, iters in (("solve", "280"), ("exp-lambda-t", "280"), ("exp-t-a", "280"),
                       ("bounds", "280"), ("exp-noise", "20")):
    assert main([command, "--config", sys.argv[1], "--out", sys.argv[2], "--iters", iters]) == 0
print("argparse" in sys.modules)
"""


def test_commands_load_no_argparse(tmp_path):
    # every command, in a fresh interpreter: the command line is read with
    # getopt, so no command loads argparse and builds a parser of five
    # subcommands (about 0.45 MB of a stability3 process)
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    result = subprocess.run([sys.executable, "-c", NO_ARGPARSE, str(config), str(tmp_path)],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert result.stdout.strip().splitlines()[-1] == "False"
