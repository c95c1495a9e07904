"""The package imports nothing outside the standard library but numpy.

pyproject.toml declares numpy as the only runtime dependency.  Other
packages may be installed where the tests run, so an accidental import
would pass every other test; this one reads the sources instead.
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
