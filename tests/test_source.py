"""Rules on the package source itself."""

import ast
from pathlib import Path

import ultragraph

SRC = Path(ultragraph.__file__).resolve().parent


def test_no_assert_statements_in_package():
    """Runtime invariants raise explicit errors: `python -O` strips asserts."""
    found = []
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, found
