"""Every module of the package uses each name it imports.

Neither pyflakes nor ruff is a dependency, so this parses the sources with
``ast`` and compares the imported names against the names the module reads.
``__init__.py`` is skipped: its imports are the public re-exports.
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


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []
