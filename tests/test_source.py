"""Rules on the package source itself."""

import ast
import importlib.util
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


def test_only_generate_lattice_handles_a_lattice():
    """On a finite graph the lattice is the power set, so every consumer
    derives it from the graph: no other function takes one as input."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == "generate_lattice":
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None
            ]
            for p in params:
                annotation = ast.unparse(p.annotation) if p.annotation else ""
                if p.arg == "lat" or "LatticeG0" in annotation:
                    found.append(f"{path.name}:{node.lineno} {node.name}({p.arg})")
    assert not found, found


def test_order_and_semicharacters_form_no_product():
    """idempotent_leq_by_shape, its unchecked helper _leq_by_shape (the
    semigroup order check's route) and eval_char read initial segments:
    they stay a route to the idempotent order independent of product."""
    tree = ast.parse((SRC / "semigroup.py").read_text())
    names = ("_leq_by_shape", "eval_char", "idempotent_leq_by_shape")
    routes = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in names
    }
    assert sorted(routes) == list(names)
    found = [
        f"{name}:{node.lineno} {node.id}"
        for name, fn in sorted(routes.items())
        for node in ast.walk(fn)
        if isinstance(node, ast.Name)
        and node.id in ("product", "glue", "rule_remainders")
    ]
    assert not found, found


def test_groupoid_law_check_runs_on_interned_points():
    """check_groupoid_laws and its point table compose int triples: the
    public compose, groupoid_element and shift_n stay out of the loop."""
    tree = ast.parse((SRC / "groupoid.py").read_text())
    routes = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in ("check_groupoid_laws", "_PointTable")
    }
    assert sorted(routes) == ["_PointTable", "check_groupoid_laws"]
    found = [
        f"{name}:{node.lineno} {node.id}"
        for name, fn in sorted(routes.items())
        for node in ast.walk(fn)
        if isinstance(node, ast.Name)
        and node.id in ("compose", "groupoid_element", "shift_n")
    ]
    assert not found, found


def test_semigroup_law_check_runs_on_interned_paths():
    """The remainder table holds entries on interned coordinates and forms
    no product: it builds no SGElement, and glue, star and _agree stay out
    of it."""
    tree = ast.parse((SRC / "cli.py").read_text())
    tables = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "_RemainderTable"
    ]
    assert len(tables) == 1
    found = [
        f"{node.lineno} {node.id}"
        for node in ast.walk(tables[0])
        if isinstance(node, ast.Name) and node.id in ("glue", "star", "_agree", "SGElement")
    ]
    assert not found, found


def test_paths_command_counts_without_enumerating():
    """_cmd_paths reports counts and 12-element samples: it must not fall
    back to building every ultrapath and lasso."""
    tree = ast.parse((SRC / "cli.py").read_text())
    commands = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_cmd_paths"
    ]
    assert len(commands) == 1
    names = ("enumerate_paths", "enumerate_lassos")
    found = [
        f"{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(commands[0])
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
    ]
    assert not found, found


def test_lassos_have_one_build_route():
    """enumerate_lassos and count_lassos both read _counted_lassos' count
    and ordered build: neither body may build, collect or sort lassos
    itself.  The return annotations name LassoPath and are not read."""
    tree = ast.parse((SRC / "paths.py").read_text())
    functions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in ("enumerate_lassos", "count_lassos")
    ]
    assert len(functions) == 2
    names = ("LassoPath", "set", "sorted")
    found = [
        f"{node.lineno} {ast.unparse(node)}"
        for function in functions
        for statement in function.body
        for node in ast.walk(statement)
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
    ]
    assert not found, found


def test_every_mutant_matches_its_module_once():
    """tests/mutants.py replaces one exact piece of text per mutant; a
    rewrite that orphans or duplicates that text is caught here, without
    running the mutation check itself.  Names are unique, since the script
    selects mutants by name, and every covering test file exists."""
    spec = importlib.util.spec_from_file_location(
        "mutants", Path(__file__).with_name("mutants.py")
    )
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    stale = [
        f"{m.module}: {m.name} ({count} matches)"
        for m in mutants.MUTANTS
        if (count := (SRC / m.module).read_text().count(m.old)) != 1
    ]
    assert not stale, stale
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names), sorted(n for n in names if names.count(n) > 1)
    missing = sorted(
        {t for m in mutants.MUTANTS for t in m.tests if not (mutants.REPO / t).is_file()}
    )
    assert not missing, missing
