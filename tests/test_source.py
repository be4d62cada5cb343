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


def test_no_unused_imports_in_the_package():
    # a name a module imports but never reads is left over from a deletion
    files = sorted(p for p in _PACKAGE.rglob("*.py")
                   if p.name != "__init__.py")
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                found += [f"{path.relative_to(_PACKAGE)}:{node.lineno} "
                          f"{name}" for a in node.names
                          if (name := a.asname or a.name.split(".")[0])
                          not in used]
    assert found == []
