"""Every definition in src/ serves the pipeline: no code that only the unit
tests call.  A top-level function or class, or a public method, must be
referenced from src/, perfbench/ or the acceptance gate, or be exported in
``dualspike.__all__``; every defaulted parameter must be set by some call
there, or it is a constant.  And src/ imports no private scipy module."""

import ast
import re
from pathlib import Path

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


def unset_defaults(package_paths, users):
    """``label(names)`` for each function whose defaulted parameters no call
    in ``users`` sets, by position or by keyword."""
    calls = calls_by_callee(users)
    found = []
    for path in package_paths:
        for qual, label, callee, params in defaulted_parameters(path):
            seen = calls.get(callee, [])
            unset = [name for name, position in params
                     if not any(name in keywords
                                or (position is not None and positional > position)
                                for positional, keywords in seen)]
            if unset and qual not in EXEMPT:
                found.append(f"{label}({', '.join(unset)})")
    return found


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


def private_scipy_imports(paths):
    """Imports of a private scipy module or name (``scipy.*._*``), as
    (file name, dotted name) pairs."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found.extend((path.name, name) for name in names
                         if name.split(".")[0] == "scipy"
                         and any(part.startswith("_") for part in name.split(".")[1:]))
    return found


def test_no_private_scipy_modules_in_src():
    # a private module's interface can change in any scipy release
    assert private_scipy_imports(sorted(PACKAGE.glob("*.py"))) == []


def test_private_scipy_imports_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import scipy.optimize._highspy._core\n"
                      "from scipy.optimize._highspy._core import _Highs\n"
                      "from scipy.optimize import _nnls, nnls\n"
                      "from scipy import linalg\n")
    assert private_scipy_imports([module]) == [
        ("module.py", "scipy.optimize._highspy._core"),
        ("module.py", "scipy.optimize._highspy._core._Highs"),
        ("module.py", "scipy.optimize._nnls")]
