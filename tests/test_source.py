"""Checks on the library source itself."""

import ast
from pathlib import Path

import pytest

import excisionlab

SOURCE = Path(excisionlab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


# exported on purpose although no code outside tests reads them
KEPT_EXPORTS = {
    "cyclic_t": "the bicomplex route to the cyclic inverse needs t and N",
    "opposite_algebra": "the documented route for right local units",
    "save_algebra": "the write half of the algebra file format",
    "save_chain": "the write half of the chain file format",
}


def _references(tree, found, unread, enclosing=()):
    """Add to `found` every name `tree` reads, as a `Name`, an `Attribute`
    or an imported name, except inside the definition of that name and
    inside the definitions of the names in `unread`."""
    for node in ast.iter_child_nodes(tree):
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        if name is not None and name not in enclosing:
            found.add(name)
        inner = enclosing
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in unread:
                continue
            inner = enclosing + (node.name,)
        _references(node, found, unread, inner)


def test_every_export_is_read_outside_tests():
    """An exported name, or a public module-level function or class, that
    only tests read, directly or through other such names, is library
    surface nobody uses: delete it, or keep it in `KEPT_EXPORTS` with the
    reason."""
    init = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    library = [ast.parse(path.read_text(encoding="utf-8"))
               for path in SOURCE.glob("*.py") if path.name != "__init__.py"]
    public = exported | {
        node.name for tree in library for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    trees = library + [ast.parse(path.read_text(encoding="utf-8"))
                       for folder in ("demos", "perfbench")
                       for path in (ROOT / folder).rglob("*.py")]
    unread = set()
    while True:  # a read inside an unread definition does not count
        found = set()
        for tree in trees:
            _references(tree, found, unread)
        newly = public - found - set(KEPT_EXPORTS)
        if newly == unread:
            break
        unread = newly
    if unread:
        pytest.fail("public names read only by tests: "
                    + ", ".join(sorted(unread)))
    # an allow-listed name that code now reads leaves the list
    assert set(KEPT_EXPORTS) <= exported - found
