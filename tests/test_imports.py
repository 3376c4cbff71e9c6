"""No module of the package or of the test suite imports a name it never uses,
and the package imports nothing outside the standard library.

Usage is any load of the bound name anywhere in the module; a name listed in
the module's `__all__` counts as used.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "bcesim").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


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
