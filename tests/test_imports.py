"""No module of the package or of the test suite imports a name it never uses,
the package imports nothing outside the standard library, and the package
defines nothing that nothing names.

Usage is any load of the bound name anywhere in the module; a name listed in
the module's `__all__` counts as used.  A top-level function or class counts
as named if its name is loaded, read as an attribute or imported by name
anywhere in `src/` or `bench/`, or if it is listed in `PUBLIC_API`; a method
that is not a dunder, if it is read as an attribute there.  The tests do not
count: a definition that only they name belongs in `tests/`.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "bcesim").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
SEARCHED = [*PACKAGE, *sorted((ROOT / "bench").glob("*.py"))]

# The top-level functions the package offers its callers that nothing in
# `src/` or `bench/` calls.
PUBLIC_API = ("run_once",)


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
    # bcesim.frontback, the engine, and bcesim.simulation, whose RunResult it
    # builds, are loaded at the first run, so that importing the package and
    # parsing a config do not pay for them.
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import bcesim.cli; "
        "from bcesim.config import parse_config; parse_config('replications = 1\\n'); "
        "print([m for m in ('bcesim.frontback', 'bcesim.simulation') if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


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
    """(names, attributes) referenced anywhere in src/ or bench/, with the
    names of PUBLIC_API."""
    names, attributes = set(PUBLIC_API), set()
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


def test_every_public_name_is_defined_in_the_package():
    # so that PUBLIC_API cannot keep a name alive after its definition is gone
    defined = {name for path in PACKAGE for _, name, is_method in definitions(path.read_text())
               if not is_method}
    assert sorted(set(PUBLIC_API) - defined) == []


def foreign_private_attributes(source):
    """(line, attribute) of each underscore attribute, not a dunder, that a
    module reads or writes on an object other than `self`."""
    return sorted(
        (node.lineno, node.attr) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    )


def test_private_attribute_check_sees_reads_and_writes_off_self():
    source = "self._a = x._b\ny._c = self.d.__class__\nz = self._e\n"
    assert foreign_private_attributes(source) == [(1, "_b"), (2, "_c")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_touches_no_private_attribute_of_another_object(path):
    # An object's underscore attributes are its own: a caller that sets or
    # reads them bypasses the checks of the methods that keep them.
    assert foreign_private_attributes(path.read_text()) == []
