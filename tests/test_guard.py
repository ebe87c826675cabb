"""Every definition in src/ serves the pipeline: no code that only the unit
tests call.  A top-level function or class, or a public method, must be
referenced from src/, perfbench/ or the acceptance gate, or be exported in
``dualspike.__all__``.  And src/ imports no private scipy module."""

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


def test_no_test_only_code_in_src():
    users = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    assert unreferenced(PACKAGE, users, set(dualspike.__all__)) == []


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
