"""The layout of the tests: no test module imports another, and each oracle is defined once.

Oracles (`ref_*`) live in `tests/oracles/`, one module per layer, beside the
seeded-input builders that several test modules share.  A test module may
import from there but not from another test module, so that a change to one
test file cannot move another's inputs.  Every `ref_*` name and every public
module-level function of `tests/` (the builders, fixtures and helpers, but
not the tests themselves) is defined in one file only.  No module of `src/`,
`tests/` or `scripts/` imports a name at its top level that it never loads.
"""

import ast
from collections import defaultdict
from functools import cache
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent


def _modules():
    return sorted(TESTS.glob("test_*.py")) + sorted((TESTS / "oracles").glob("*.py"))


@cache
def _tree(path):
    return ast.parse(path.read_text())


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module


def _definitions(tree):
    """The names a module binds at its top level: functions, classes and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, "def"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, "assign") for t in targets if isinstance(t, ast.Name))


def _unused_imports(tree):
    """Names a module imports at its top level and never loads; a name in `__all__` is loaded."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            loaded.update(ast.literal_eval(node.value))
    return sorted(imported - loaded)


def test_no_test_module_imports_another():
    found = []
    for path in sorted(TESTS.glob("test_*.py")):
        for module in _imported_modules(_tree(path)):
            if module.split(".")[0].startswith("test_") or module.split(".")[0] == "tests":
                found.append(f"{path.name} imports {module}")
    assert not found, found


def test_each_oracle_and_builder_is_defined_once_in_its_place():
    where = defaultdict(list)
    for path in _modules():
        for name, kind in _definitions(_tree(path)):
            public_function = kind == "def" and not name.startswith(("test_", "_"))
            if name.startswith("ref_") or public_function:
                where[name].append(str(path.relative_to(TESTS)))
    repeated = {name: files for name, files in where.items() if len(files) > 1}
    assert not repeated, repeated
    misplaced = {
        name: files[0]
        for name, files in where.items()
        if name.startswith("ref_") and not files[0].startswith("oracles/")
    }
    assert not misplaced, misplaced


def test_oracles_are_found_where_the_tests_read_them():
    # the guard above reads every module it should: the package and the test files
    names = {path.relative_to(TESTS).as_posix() for path in _modules()}
    assert {"oracles/polyhedra.py", "oracles/varieties.py", "test_layout.py"} <= names
    assert not (TESTS / "fraction_polyhedra.py").exists()


def test_no_module_imports_a_name_it_never_loads():
    planted = "from __future__ import annotations\nimport os, a.b\nfrom c import d as e, f\n__all__ = ['f']\na.x\n"
    assert _unused_imports(ast.parse(planted)) == ["e", "os"]
    paths = [*REPO.glob("src/**/*.py"), *TESTS.glob("**/*.py"), *REPO.glob("scripts/*.py")]
    assert {"src/tropica/sampling.py", "tests/oracles/sampling.py", "scripts/showcase.py"} <= {
        path.relative_to(REPO).as_posix() for path in paths
    }
    found = {}
    for path in sorted(paths):
        unused = _unused_imports(_tree(path))
        if unused:
            found[path.relative_to(REPO).as_posix()] = unused
    assert not found, found
