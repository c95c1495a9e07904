"""The package imports nothing outside the standard library but numpy.

pyproject.toml declares numpy as the only runtime dependency.  Other
packages may be installed where the tests run, so an accidental import
would pass every other test; this one reads the sources instead.  It
also fails on a name a module imports and never uses, the check a
linter's F401 makes.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "loopfield"
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
