"""The layout of the tests: no test module imports another, and each oracle is defined once.

Oracles (`ref_*`) live in `tests/oracles/`, one module per layer, beside the
seeded-input builders that several test modules share.  A test module may
import from there but not from another test module, so that a change to one
test file cannot move another's inputs.  Every `ref_*` name and every public
module-level function of `tests/` (the builders, fixtures and helpers, but
not the tests themselves) is defined in one file only.
"""

import ast
from collections import defaultdict
from functools import cache
from pathlib import Path

TESTS = Path(__file__).resolve().parent


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
