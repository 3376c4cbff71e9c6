"""No module of the package or of the test suite imports a name it never uses,
the package imports nothing outside the standard library, and the package
defines nothing that nothing names.

Usage is any load of the bound name anywhere in the module; a name listed in
the module's `__all__` counts as used.  A top-level function or class counts
as named if its name is loaded, read as an attribute or imported by name
anywhere in `src/`, `tests/` or `bench/`; a method that is not a dunder, if
it is read as an attribute there.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "bcesim").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
SEARCHED = [*MODULES, *sorted((ROOT / "bench").glob("*.py"))]


def unused_imports(source):
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_check_sees_names_and_all():
    source = "import os\nimport a.b\nfrom c import d, e as f\n__all__ = ['d']\nprint(a)\n"
    assert unused_imports(source) == [(1, "os"), (3, "f")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_packages(source):
    """Top-level names of the packages a module imports; relative imports
    count as the module's own package, `bcesim`."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            packages.add("bcesim" if node.level else node.module.split(".")[0])
    return packages


def test_imported_package_check_sees_every_form():
    source = "import os.path\nimport numpy as np\nfrom . import core\nfrom scipy.stats import t\n"
    assert imported_packages(source) == {"os", "numpy", "bcesim", "scipy"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"bcesim"}
    assert sorted(imported_packages(path.read_text()) - allowed) == []


def test_a_run_without_a_back_sweep_never_loads_the_front_back_split():
    # bcesim.frontback is loaded on first use, so that starting any other run
    # does not pay for it.
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import bcesim.cli; "
        "from bcesim.config import paper_default; from bcesim.experiments import run_plain; "
        "run_plain(paper_default().replace(horizon=20.0, warmup=0.0, replications=1)); "
        "print('bcesim.frontback' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def definitions(source):
    """(line, name, is_method) of each top-level function and class of a
    module, and of each method whose name is not a dunder."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name, False))
        if isinstance(node, ast.ClassDef):
            found += [
                (item.lineno, item.name, True) for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return found


def references(source):
    """(names, attributes): every name a module loads or imports by name, and
    every attribute it reads."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attributes


def test_dead_definition_check_sees_functions_classes_and_methods():
    source = "def f():\n    g()\nclass C:\n    def __len__(self): pass\n    def m(self): pass\n"
    assert definitions(source) == [(1, "f", False), (3, "C", False), (5, "m", True)]
    assert references(source + "from a import b\nx.y\n") == ({"g", "b", "x"}, {"y"})


@pytest.fixture(scope="module")
def in_use():
    """(names, attributes) referenced anywhere in src/, tests/ or bench/."""
    names, attributes = set(), set()
    for path in SEARCHED:
        more_names, more_attributes = references(path.read_text())
        names |= more_names
        attributes |= more_attributes
    return names, attributes


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_definition_is_named_somewhere(path, in_use):
    # A method is named only as an attribute; a local variable of the same
    # name does not keep it alive.
    names, attributes = in_use
    assert [(line, name) for line, name, is_method in definitions(path.read_text())
            if name not in attributes and (is_method or name not in names)] == []
