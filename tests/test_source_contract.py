"""The package source keeps contracts a run cannot show: no ``assert``
statement, because ``python -O`` strips them; no import from outside
the standard library and the package itself; no tuple built from a
generator; and a Routh cross-check that shares no arithmetic with the
Hurwitz path it checks."""

import ast
import sys
from pathlib import Path

import gammalab

SOURCES = sorted(Path(gammalab.__file__).parent.glob("*.py"))


def _nodes():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            yield path.name, node


def test_source_has_no_assert():
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def test_source_imports_only_the_standard_library_and_the_package():
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:  # a relative import stays inside the package
            continue
        for module in modules:
            top = module.split(".")[0]
            if top != "gammalab" and top not in sys.stdlib_module_names:
                found.append(f"{name}:{node.lineno}: {module}")
    assert SOURCES and not found, found


def test_source_builds_no_tuple_from_a_generator():
    """``tuple(<generator>)`` and ``f(*<generator>)`` size the tuple at a
    length hint of 10 and then resize it, so every call moves a block onto
    the tuple free list of its final size; those lists fill over repeated
    calls and resident memory grows.  Build such tuples from a list."""
    found = []
    for name, node in _nodes():
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and node.args
            and isinstance(node.args[0], ast.GeneratorExp)
        ) or (isinstance(node, ast.Starred) and isinstance(node.value, ast.GeneratorExp)):
            found.append(f"{name}:{node.lineno}")
    assert not found, found


def test_routh_stable_shares_no_arithmetic_with_the_hurwitz_path():
    """``routh_stable`` cross-checks ``hurwitz_classify``, so it stays rational
    and names, directly or through the module functions it calls, none of the
    integer remainder helpers the Hurwitz path runs on."""
    path = Path(gammalab.__file__).parent / "stability.py"
    defs = {
        node.name: node
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    named, todo = set(), ["routh_stable"]
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name and name not in named:
                named.add(name)
                if name in defs:
                    todo.append(name)
    shared = {"_prem", "_primitive", "_primitive_gcd", "poly_gcd", "squarefree_part"}
    shared |= {"_signed_remainders", "_cauchy_relation"}
    assert "scalar_div" in named and not named & shared, sorted(named & shared)
