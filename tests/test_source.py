"""Rules the source of the package keeps."""

import ast
from pathlib import Path

import tilewalk

PACKAGE = Path(tilewalk.__file__).resolve().parent


def test_no_assert_guards_a_runtime_invariant():
    # python -O strips assert statements, so an invariant raises an exception instead
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
