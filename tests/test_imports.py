"""Every module of the package uses each name it imports, and every function
reads each of its parameters.

Neither pyflakes nor ruff is a dependency, so this parses the sources with
``ast`` and compares the imported names and the parameters against the names
the code reads.  ``__init__.py`` is skipped: its imports are the public
re-exports.
"""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ptsep"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """(line, name) for every imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_only_the_dead_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .automata import bits, mask_of as mo\n"
        "def f(x):\n"
        "    from collections import deque\n"
        "    return os.path.join(bits(x), mo(x))\n"
    )
    assert unused_imports(source) == [(2, "math"), (6, "deque")]


def unused_parameters(source: str):
    """(line, function, parameter) for every parameter that its function
    never reads.  Only a load counts as a read, so ``del x`` does not;
    ``self``, ``cls`` and ``*args`` are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        if args.kwarg is not None:
            params.append(args.kwarg)
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out.extend((node.lineno, name, p.arg) for p in params
                   if p.arg not in ("self", "cls") and p.arg not in read)
    return sorted(out)


def test_parameter_detector_flags_only_the_dead_parameters():
    source = (
        "class C:\n"
        "    def m(self, x, *rest, y=0, **extra):\n"
        "        return x + y\n"
        "    @classmethod\n"
        "    def make(cls, z):\n"
        "        del z\n"
        "def outer(a, b):\n"
        "    def inner(c):\n"
        "        return a\n"
        "    return inner\n"
        "key = lambda item, _: item\n"
    )
    assert unused_parameters(source) == [
        (2, "m", "extra"), (5, "make", "z"), (7, "outer", "b"),
        (8, "inner", "c"), (11, "<lambda>", "_"),
    ]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_parameters(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_parameters(source) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []
