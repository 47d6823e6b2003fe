"""Checks on the library source itself."""

import ast
from pathlib import Path

import pytest

import excisionlab

SOURCE = Path(excisionlab.__file__).parent


def test_library_has_no_assert_statements():
    """Correctness checks in the library raise typed errors: `python -O`
    strips an `assert`, so it would check nothing there."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    if found:
        pytest.fail("assert statements in the library: " + ", ".join(found))
