"""The package imports nothing outside the standard library but numpy,
and the tests nothing more than their declared extra.

pyproject.toml declares numpy as the only runtime dependency, and the
`test` extra as what the tests may import besides.  Other packages may
be installed where the tests run, so an accidental import would pass
every other test; this one reads the sources instead.  It also fails on
a name a module imports and never uses, the check a linter's F401 makes,
and on a private name that the package defines and never reads.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loopfield"
TESTS = ROOT / "tests"
SPANS = ROOT / "bench" / "spans.py"
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


def _traced_names():
    """(module, name) of every function the benchmark's tracer wraps by
    module attribute: the _FUNCTION_SPANS table of bench/spans.py, read
    from its source, not imported."""
    for node in ast.parse(SPANS.read_text(), str(SPANS)).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_FUNCTION_SPANS"]:
            table = ast.literal_eval(node.value)
            return {(module, name) for modules, name in table.values() for module in modules}
    raise AssertionError("bench/spans.py defines no _FUNCTION_SPANS table")


def _unused_imports(path, traced):
    """Names a module imports and never reads as a Name node; the
    __future__ import is exempt, and so is a name on an import marked
    "# noqa: F401" that the tracer wraps under this module."""
    source = path.read_text()
    tree = ast.parse(source, str(path))
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
            continue
        marked = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names:
            name = (alias.asname or alias.name).partition(".")[0]
            if not (marked and (path.stem, name) in traced):
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export; fields keeps integrate_1d and
    # integrate_2d, marked "# noqa: F401", only because the benchmark's
    # tracer wraps both there, and a mark that outlives the wrapping fails
    traced = _traced_names()
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    unused = [entry for path in sources for entry in _unused_imports(path, traced)]
    assert not unused


def test_the_package_has_one_cross_product():
    # geometry.cross is bitwise equal to np.cross without its per-call
    # set-up; the tests keep np.cross as their reference
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "cross"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
            and any(alias.name == "cross" for alias in node.names))
    ]
    assert not calls


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(path):
    """Module-level private functions, classes and constants, private
    methods and stored private attributes, as (name, line)."""
    tree = ast.parse(path.read_text(), str(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno


def _names_read(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_private_name_is_read_in_the_package():
    # code that only tests reach is code the package does not need
    sources = sorted(PACKAGE.glob("*.py"))
    read = {name for path in sources for name in _names_read(path)}
    dead = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for name, line in _private_definitions(path)
        if _private(name) and name not in read
    ]
    assert not dead


def test_importing_the_cli_loads_no_test_framework():
    # every loopfield process imports the cli; unittest.mock would bring
    # asyncio with it
    probe = "import sys, loopfield.cli; print(sorted({'unittest.mock', 'asyncio'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_a_gauss_linking_call_loads_no_masked_arrays():
    # importing numpy.ma takes about 15 ms of a process's start-up, which
    # every link, ampere and selftest process paid while the walk's
    # breakpoints went through np.unique
    scene = ROOT / "scenes" / "double_wind.json"
    probe = (
        "import sys; from loopfield import gauss_linking; from loopfield.scenefile import parse_scene_file; "
        f"gauss_linking(parse_scene_file({str(scene)!r}).build_scene('double_wind')); "
        "print('numpy.ma' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
