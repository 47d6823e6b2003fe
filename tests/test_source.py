"""Checks on the library source itself."""

import ast
from pathlib import Path

import pytest

import excisionlab

SOURCE = Path(excisionlab.__file__).parent


def _library_nodes(matches):
    """"file:line" of every node of the library's syntax trees that
    `matches`."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if matches(node)
        ]
    return found


def test_library_has_no_assert_statements():
    """Correctness checks in the library raise typed errors: `python -O`
    strips an `assert`, so it would check nothing there."""
    found = _library_nodes(lambda node: isinstance(node, ast.Assert))
    if found:
        pytest.fail("assert statements in the library: " + ", ".join(found))


def test_library_has_no_true_division():
    """Integral scalars are stored as `int`, and `int / int` is a float, so
    the library divides only through `Fraction(p, q)` or `//`."""
    found = _library_nodes(lambda node: isinstance(node, (ast.BinOp, ast.AugAssign))
                           and isinstance(node.op, ast.Div))
    if found:
        pytest.fail("true division in the library: " + ", ".join(found))
