"""Checks on the package source itself."""

import ast
import pathlib
import re

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "nilorbits"


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


def _definitions(tree: ast.Module):
    """(line, name) of the top-level functions and classes of a module and
    of the methods of its classes, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((item.lineno, item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not re.fullmatch(r"__\w+__", item.name))


def _references(tree: ast.Module):
    """Every name a module reads: names, attributes, imported names and
    their aliases, and the words of its strings (such as the span table of
    the benchmark, which names functions as 'module.function')."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from re.findall(r"\w+", node.value)


def test_every_definition_in_the_package_is_referenced():
    # a function, class or method that nothing in the package, the tests,
    # the demos or the benchmark names is dead code
    refs = set()
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in sorted((_ROOT / folder).rglob("*.py")):
            refs.update(_references(ast.parse(path.read_text(), str(path))))
    defs = [(path, line, name) for path in sorted(_PACKAGE.rglob("*.py"))
            for line, name in _definitions(
                ast.parse(path.read_text(), str(path)))]
    assert len(defs) > 200
    found = [f"{path.relative_to(_PACKAGE)}:{line} {name}"
             for path, line, name in defs if name not in refs]
    assert found == []


def _package_imports(path: pathlib.Path):
    """(module, name) for each name a module imports from the package,
    with the module relative to the package and name None for a whole
    module; imports from outside the package are left out."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((a.name.removeprefix("nilorbits").lstrip("."), None)
                        for a in node.names
                        if re.match(r"nilorbits\b", a.name))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if not re.match(r"nilorbits\b", base):
                    continue
                base = base.removeprefix("nilorbits").lstrip(".")
            yield from ((base, a.name) if base else (a.name, None)
                        for a in node.names)


def test_computation_modules_import_neither_verify_nor_cli():
    # verify holds the expected sides: a computation that read them would
    # make a check compare a value with itself
    found = [f"{name}.py: {mod}" for name in (
        "roots", "sl2", "orbits", "involutions", "exceptional", "gradings",
        "linalg", "oracle")
        for mod, _ in _package_imports(_PACKAGE / f"{name}.py")
        if mod in ("verify", "cli")]
    assert found == []


def test_the_oracle_builds_dense_matrices_only_in_dense():
    # the oracle keeps each matrix in one sparse form; a dense matrix is
    # built only for the product [e, f] and for solve_in_span, by _dense
    path = _PACKAGE / "oracle.py"
    tree = ast.parse(path.read_text(), str(path))

    def zeros_calls(node):
        return {n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
                and "zeros" in (getattr(n.func, "id", None),
                                getattr(n.func, "attr", None))}

    dense, = (node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "_dense")
    assert zeros_calls(tree) == zeros_calls(dense) != set()


def test_the_oracle_imports_only_the_records_it_realises():
    # the oracle is the independent path: it reads the orbit and pair
    # records, the grid it fills, the factor Jordan types it realises and
    # exact linear algebra, but no partition formula, sl2-module calculus,
    # root data or exceptional record
    allowed = {("orbits", "ClassicalOrbit"), ("orbits", "Partition"),
               ("gradings", "MixedGrading"),
               ("gradings", "factor_jordan_types"),
               ("involutions", "SymmetricPair")}
    imports = list(_package_imports(_PACKAGE / "oracle.py"))
    assert ("linalg", "rank") in imports
    assert [(mod, name) for mod, name in imports
            if mod != "linalg" and (mod, name) not in allowed] == []
