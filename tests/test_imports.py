"""Every module-level import in the package is used by its module, no
module imports another module's private (``_``-prefixed) name, every
public top-level function or class is used outside the tests, the
package's one error type is XmodError, and the CLI raises nothing of its
own: every data check lives in the library function that indexes the data."""
import ast
import builtins
from pathlib import Path

import pytest

import xmod

MODULES = sorted(Path(xmod.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def private_imports(source: str) -> list[str]:
    return [
        f"{node.module}.{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and node.module != "__future__"
    ]


BUILTIN_EXCEPTIONS = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def _name(node) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def exception_classes(sources: list[str]) -> list[str]:
    """Classes in ``sources`` that derive from a builtin exception, directly
    or through one another."""
    bases = {
        node.name: {_name(base) for base in node.bases}
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }
    found, grown = set(), True
    while grown:
        grown = False
        for name, names in bases.items():
            if name not in found and names & (BUILTIN_EXCEPTIONS | found):
                found.add(name)
                grown = True
    return sorted(found)


def foreign_raises(source: str) -> list[str]:
    """``raise`` statements that name neither XmodError nor a builtin exception."""
    return [
        f"{_name(node.exc)} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and node.exc is not None
        and _name(node.exc) not in BUILTIN_EXCEPTIONS | {"XmodError"}
    ]


def _docstrings(tree) -> set[int]:
    """ids of the docstring nodes of a module and of its classes and functions."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def _references(node, docstrings: set[int]) -> set[str]:
    """Names, attribute names and (non-docstring) strings under ``node``;
    strings count because the benchmark hooks functions by name."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and id(sub) not in docstrings:
            refs.add(sub.value)
    return refs


def unreferenced_public_names(package: dict, users: dict) -> list[str]:
    """Public top-level functions and classes of ``package`` that no
    top-level statement other than their own definition refers to, in
    ``package`` or ``users``. Both map a file name to its source."""
    refs, defs = {}, []
    for name, source in {**package, **users}.items():
        tree = ast.parse(source)
        docstrings = _docstrings(tree)
        for i, stmt in enumerate(tree.body):
            refs[name, i] = _references(stmt, docstrings)
            if (name in package and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defs.append((name, i, stmt.name))
    return [
        f"{name}: {defined}"
        for name, i, defined in defs
        if not any(defined in found for key, found in refs.items() if key != (name, i))
    ]


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_detects_a_private_import():
    source = "from __future__ import annotations\nfrom .transfer import Direction, _subset\n"
    assert private_imports(source) == ["transfer._subset (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    assert private_imports(path.read_text()) == []


def test_detects_an_unreferenced_public_name():
    package = {"a.py": (
        "def used():\n    return helper()\n\n"
        "def helper():\n    pass\n\n"
        "def hooked():\n    pass\n\n"
        'def planted(n):\n    """planted"""\n    return planted(n - 1)\n\n'
        "class _Private:\n    pass\n"
    )}
    users = {"demo.py": '"""planted"""\nused()\nHook("a", "hooked")\n'}
    assert unreferenced_public_names(package, users) == ["a.py: planted"]


def test_every_public_name_is_used_outside_the_tests():
    users = sorted(REPO.glob("demos/*.py")) + sorted(REPO.glob("xbench/*.py"))
    assert users, "demos/ and xbench/ not found beside tests/"
    assert unreferenced_public_names(
        {p.name: p.read_text() for p in MODULES},
        {str(p.relative_to(REPO)): p.read_text() for p in users},
    ) == []


def test_detects_exception_classes_and_foreign_raises():
    source = (
        "class XmodError(Exception):\n    pass\n\n"
        "class ShapeError(XmodError):\n    pass\n\n"
        "class Plain:\n    pass\n\n"
        "ShapeAlias = XmodError\n\n"
        "def f(x):\n"
        "    if x:\n        raise ShapeAlias('a')\n"
        "    if x > 1:\n        raise ValueError('b')\n"
        "    raise XmodError('c')\n"
    )
    assert exception_classes([source]) == ["ShapeError", "XmodError"]
    assert foreign_raises(source) == ["ShapeAlias (line 14)"]


def test_one_error_type():
    sources = [p.read_text() for p in MODULES]
    assert exception_classes(sources) == ["NotConvergedWarning", "XmodError"]
    assert [f"{p.name}: {r}" for p in MODULES for r in foreign_raises(p.read_text())] == []


def raise_lines(source: str) -> list[int]:
    """Line numbers of the ``raise`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)]


def test_detects_a_raise():
    assert raise_lines("def f(x):\n    if x:\n        raise XmodError('x')\n") == [3]


def test_the_cli_raises_nothing_of_its_own():
    cli = Path(xmod.__file__).parent / "cli.py"
    assert raise_lines(cli.read_text()) == []
