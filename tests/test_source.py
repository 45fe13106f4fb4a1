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
