"""Checks on the package source itself."""

import ast
import pathlib

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "nilorbits"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements: a check that guards a result
    # raises an exception instead
    files = sorted(_PACKAGE.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(_PACKAGE)}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
