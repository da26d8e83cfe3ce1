"""Every import in the package modules, at module level or inside a function, is used."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "viciouskit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
IMPORTS = (ast.Import, ast.ImportFrom)


def _scopes(tree):
    """The module and each function, with the imports each one binds."""
    yield tree, [n for n in tree.body if isinstance(n, IMPORTS)]
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield fn, [n for n in ast.walk(fn) if isinstance(n, IMPORTS)]


def _unused_imports(tree):
    unused = set()
    for scope, imports in _scopes(tree):
        bound = {}
        for node in imports:
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        unused |= {(line, name) for name, line in bound.items() if name not in used}
    return sorted(unused)


def test_function_local_imports_are_checked():
    tree = ast.parse("import math\n\ndef f():\n    import warnings\n    return math.pi\n")
    assert _unused_imports(tree) == [(4, "warnings")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []
