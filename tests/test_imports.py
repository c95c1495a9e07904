"""The package imports nothing outside the standard library but numpy,
and the tests nothing more than their declared extra.

pyproject.toml declares numpy as the only runtime dependency, and the
`test` extra as what the tests may import besides.  Other packages may
be installed where the tests run, so an accidental import would pass
every other test; this one reads the sources instead.  It also fails on
a name a module imports and never uses, the check a linter's F401 makes.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loopfield"
TESTS = ROOT / "tests"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "loopfield"}


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}: {name}"
        for path in sources
        for name in _absolute_imports(path)
        if name.partition(".")[0] not in ALLOWED
    ]
    assert not foreign


def test_tests_import_only_numpy_and_the_test_extra():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    # a requirement's distribution name, before any version or marker
    extra = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower()
        for requirement in project["optional-dependencies"]["test"]
    }
    sources = sorted(TESTS.glob("*.py"))
    assert sources
    local = {path.stem for path in sources}
    foreign = [
        f"{path.name}: {name}"
        for path in sources
        for name in _absolute_imports(path)
        if name.partition(".")[0] not in ALLOWED | extra | local
    ]
    assert not foreign


def _unused_imports(path):
    """Names a module imports and never reads as a Name node; an import
    marked "# noqa: F401" and the __future__ import are exempt."""
    source = path.read_text()
    tree = ast.parse(source, str(path))
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export; fields keeps integrate_1d, marked
    # "# noqa: F401", for the benchmark's tracer
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    unused = [entry for path in sources for entry in _unused_imports(path)]
    assert not unused
