"""Every import in the package modules, at module level or inside a function, is used,
every module-level private name is used, the package imports nothing from scipy and loads
nothing outside the standard library but numpy, and every `__all__` entry names something
its module defines."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

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


def _private_definitions(tree):
    """(name, statement) of each module-level _name a tree defines, dunders aside."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        yield from ((n, stmt) for n in names if n.startswith("_") and not n.startswith("__"))


def _references(node):
    """The names a node reads: bare names, attributes and names imported from a module."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (a.name for a in n.names)


def _orphans(trees):
    """The module-level private names of trees that no statement but their own reads."""
    orphans = []
    for tree in trees:
        for name, own in _private_definitions(tree):
            if not any(name in _references(stmt) for other in trees for stmt in other.body
                       if stmt is not own):
                orphans.append(name)
    return sorted(orphans)


def test_orphaned_private_names_are_found():
    trees = [ast.parse("_A = 1\n_B = 2\n\ndef _f(n):\n    return _f(n - 1)\n\n"
                       "def g():\n    return _A\n"),
             ast.parse("from m import _C\n\ndef _h():\n    return m._B\n")]
    assert _orphans(trees) == ["_f", "_h"]


def test_private_names_are_used():
    # a helper left behind by a simplification is dead code
    assert _orphans([ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")]) == []


def _scipy_imports(tree):
    """The scipy modules a tree imports, at module level or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            yield from ("scipy." + a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy."):
            yield node.module


def test_scipy_imports_are_found():
    tree = ast.parse("from scipy import stats\n\ndef f():\n    import scipy.linalg\n"
                     "    from scipy.special import erf\n")
    assert sorted(_scipy_imports(tree)) == ["scipy.linalg", "scipy.special", "scipy.stats"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_scipy_special(path):
    # numpy is the only runtime dependency: no scipy import at all
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_scipy_imports(tree)) == []


def _modules_the_import_loads():
    """The modules a fresh interpreter adds by the import the CLI pays for.

    Modules the interpreter loads at start-up (site hooks) are not counted.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [str(SRC.parent), env.get("PYTHONPATH")] if p)
    code = ("import sys\nbefore = set(sys.modules)\n"
            "import viciouskit, viciouskit.cli, viciouskit.harness\n"
            "print(*sorted(set(sys.modules) - before))")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout.split()


def test_import_loads_no_scipy_module_but_special():
    assert [m for m in _modules_the_import_loads() if m.split(".")[0] == "scipy"] == []


def test_import_loads_only_stdlib_and_numpy():
    # a heavier import fails here rather than showing up only as set-up time
    allowed = set(sys.stdlib_module_names) | {"numpy", "viciouskit"}
    assert [m for m in _modules_the_import_loads() if m.split(".")[0] not in allowed] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_all_entries_exist(path):
    # tooling walks each module's __all__ with getattr, so a stale entry breaks it
    name = "viciouskit" if path.stem == "__init__" else "viciouskit." + path.stem
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert missing == []
