"""Every module of the package uses each name it imports, every function
reads each of its parameters, and every top-level name, public or not, is
reached by the command line, by the benchmark workloads, or by a short list
of kept names.

Neither pyflakes nor ruff is a dependency, so this parses the sources with
``ast`` and compares the imported names and the parameters against the names
the code reads.  ``__init__.py`` is skipped by the import check: its imports
are the public re-exports, which the reachability check covers.
"""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ptsep"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", [PACKAGE / m for m in MODULES] + TESTS,
                         ids=MODULES + [f"tests/{p.name}" for p in TESTS])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Public names that neither the command line nor a benchmark workload reaches,
# kept on purpose.  A name here that becomes reached fails as stale.
KEPT = {
    "materialize_prefix_tower": "the infinite prefix tower of a pattern, as in the paper",
    "tower_preserving_determinization": "the paper's determinization transform",
    "transform_tower": "carries a tower through that transform",
    "DeterminizationTransform": "the transform's result type",
    "down_determinize": "the tests' route to the closure machine, checked against the "
                        "down-closure reference",
    "minimal_dfa": "the tests' route to the minimization kernel, and the numbering of "
                   "the PT witness of language_pt_violation",
}


def _dotted(node) -> list:
    """["a", "b", "c"] for the expression a.b.c, [] for anything else."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    names.append(node.id)
    return names[::-1]


def _reads(module: str, source: str):
    """(exports, graph) of one package module.  ``graph`` maps each top-level
    name to the (module, name) pairs its definition reads: bare names that
    the module defines or imports from the package, and ``mod.name`` where
    ``mod`` is a package module.  An attribute of anything else, such as
    ``block.difference(x)``, is not a read.  ``exports`` maps each name that
    the module imports from the package to its (module, name)."""
    tree = ast.parse(source)
    imported, bodies = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                imported[alias.asname or alias.name] = (
                    (alias.name, None) if node.module is None else (node.module, alias.name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bodies.setdefault(node.name, []).append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bodies.setdefault(name.id, []).append(node.value)
    modules = {local: mod for local, (mod, name) in imported.items() if name is None}
    graph = {}
    for name, nodes in bodies.items():
        out = graph.setdefault((module, name), set())
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    if sub.id in bodies:
                        out.add((module, sub.id))
                    elif sub.id in imported and sub.id not in modules:
                        out.add(imported[sub.id])
                elif isinstance(sub, ast.Attribute):
                    chain = _dotted(sub)
                    if len(chain) == 2 and chain[0] in modules:
                        out.add((modules[chain[0]], chain[1]))
    exports = {local: key for local, key in imported.items() if local not in modules}
    return exports, graph


def reach(sources: dict, bench_sources, roots):
    """(exports, defined, reached): the public names of the package, from the
    module sources ``{module: source}`` with ``__init__`` among them; the
    (module, name) of every top-level definition outside ``__init__``; and
    every (module, name) reached from ``roots`` (public names or (module,
    name) pairs) and from the ``ptsep.name`` and ``ptsep.module.name`` reads
    of ``bench_sources``.  A name read only inside its own definition is not
    reached."""
    exports, graph = {}, {}
    for module, source in sources.items():
        names, edges = _reads(module, source)
        graph.update(edges)
        if module == "__init__":
            exports = names
    todo = [exports.get(root, root) for root in roots]
    for source in bench_sources:
        for node in ast.walk(ast.parse(source)):
            chain = _dotted(node) if isinstance(node, ast.Attribute) else []
            if chain[:1] != ["ptsep"]:
                continue
            if len(chain) == 2 and chain[1] in exports:
                todo.append(exports[chain[1]])
            elif len(chain) == 3 and chain[1] in sources:
                todo.append((chain[1], chain[2]))
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo.extend(graph.get(key, ()))
    defined = {key for key in graph if key[0] != "__init__"}
    return exports, defined, reached


def unreached(sources: dict, bench_sources, roots=(("cli", "main"),)):
    """Public names that nothing reached from ``roots`` and the benchmark."""
    exports, _, reached = reach(sources, bench_sources, roots)
    return sorted(name for name, key in exports.items() if key not in reached)


def unreached_definitions(sources: dict, bench_sources, roots=(("cli", "main"),)):
    """(module, name) of every top-level function, class or constant that
    nothing reached from ``roots`` and the benchmark, public or not."""
    _, defined, reached = reach(sources, bench_sources, roots)
    return sorted(defined - reached)


def test_reach_detector_on_a_snippet():
    sources = {
        "__init__": "from .automata import difference, minus, split\n",
        "automata": "def difference(a, b):\n"
                    "    return difference(b, a)\n"
                    "def minus(a, b):\n"
                    "    return a - b\n"
                    "def split(block, x):\n"
                    "    return block.difference(x)\n",
        "cli": "from . import automata\n"
               "from .automata import split\n"
               "def main():\n"
               "    return split(set(), set())\n"
               "def other():\n"
               "    return automata.difference(1, 2)\n",
    }
    # neither a method call of the same name nor a read inside its own
    # definition is a use
    assert unreached(sources, []) == ["difference", "minus"]
    assert unreached(sources, ["ptsep.minus(1, 2)"]) == ["difference"]
    assert unreached(sources, ["ptsep.automata.difference(1, 2)"]) == ["minus"]
    assert unreached(sources, [], roots=[("cli", "main"), "minus"]) == ["difference"]
    sources["cli"] = sources["cli"].replace("split(set(), set())", "other()")
    assert unreached(sources, []) == ["minus", "split"]

    sources = {
        "__init__": "from .automata import split\n__version__ = '0'\n",
        "automata": "LIMIT = 3\n"
                    "UNUSED = 4\n"
                    "def _grow(x):\n"
                    "    return _grow(x + 1)\n"
                    "def _head(block):\n"
                    "    return min(block, default=LIMIT)\n"
                    "def split(block, x):\n"
                    "    return _head(block), x\n",
        "cli": "from .automata import split\n"
               "def main():\n"
               "    return split(set(), 1)\n",
    }
    # a private helper or a constant that nothing reaches is dead even though
    # it is not exported; ``__init__`` holds only re-exports and metadata
    assert unreached(sources, []) == []
    assert unreached_definitions(sources, []) == [("automata", "UNUSED"), ("automata", "_grow")]
    assert unreached_definitions(sources, ["ptsep.automata._grow(0)"]) == [("automata", "UNUSED")]


def _package_sources():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    bench = [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    return sources, bench


def test_every_public_name_is_reached():
    sources, bench = _package_sources()
    assert unreached(sources, bench, roots=[("cli", "main"), *KEPT]) == []


def test_every_top_level_name_is_reached():
    sources, bench = _package_sources()
    assert unreached_definitions(sources, bench, roots=[("cli", "main"), *KEPT]) == []


def test_kept_names_are_not_reached_otherwise():
    sources, bench = _package_sources()
    exports, _, _ = reach(sources, bench, roots=())
    assert set(KEPT) <= set(exports)
    assert set(KEPT) - set(unreached(sources, bench)) == set()
