"""Checks on the package source itself."""

import ast
from pathlib import Path

import folint

SOURCES = sorted(Path(folint.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_bare_asserts():
    # python -O strips assert statements, so checks must raise explicitly
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node, "float literal"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node, "float()"
        elif (isinstance(node, ast.Attribute) and node.attr == "sqrt"
              and isinstance(node.value, ast.Name)
              and node.value.id == "math"):
            yield node, "math.sqrt"
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(alias.name == "sqrt" for alias in node.names)):
            yield node, "math.sqrt"


def test_no_floats():
    # every decision is exact: no float literal, float() or math.sqrt
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d %s" % (path.name, node.lineno, what)
                  for node, what in _float_uses(tree)]
    assert found == []


def test_float_check_sees_floats():
    snippet = ("x = 0.5\ny = float(x)\nz = math.sqrt(2)\n"
               "from math import sqrt\n")
    kinds = sorted(what for _, what in _float_uses(ast.parse(snippet)))
    assert kinds == ["float literal", "float()", "math.sqrt", "math.sqrt"]
