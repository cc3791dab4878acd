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


def test_unchecked_construction_stays_in_paths():
    """Only paths.py builds frozen values field by field, past their
    canonicalizing constructors."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "paths.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("__setattr__", "__new__")
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ]
    assert not found, found
