"""Every name a module under src/ imports is used in the scope that imports it,
and every function, class or name it defines at the top level is reached from
src.

An import left behind when the code that used it is deleted still loads its
module and still reads as a dependency, so each is reported by module, line
and name.  Names listed in a module's __all__ count as used (re-exports).

A definition that only the tests read is test code living in the library, so
each top-level function, class and assigned name must be named by src code
outside its own definition, be exported by the package, or be a benchmark
tracer target (those are read from benchmarks/tracer.py as text, as
test_trace_targets reads them).

cli reads no _-prefixed name of another hecke_eta module, by import or as
an attribute: each layer's plans and cost models stay behind its public
names, so that none of them is priced or decided in cli.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest
from test_trace_targets import _targets

import hecke_eta

SRC = Path(__file__).resolve().parent.parent / "src" / "hecke_eta"


def _bound_names(node):
    """(line, name) for each name an import statement binds."""
    for alias in node.names:
        if alias.name == "*":
            continue
        yield node.lineno, alias.asname or alias.name.split(".")[0]


def _scope_imports(scope):
    """The import statements of one module or function body, not those of
    the functions and classes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if not (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    unused = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)} | exported
        for node in _scope_imports(scope):
            unused += [(line, name) for line, name in _bound_names(node) if name not in used]
    return sorted(unused)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = (
        "from math import gcd, isqrt\n"
        "import json\n"
        "def f(n):\n"
        "    import os\n"
        "    return isqrt(n)\n"
        "def g():\n"
        "    return json.dumps(0)\n"
    )
    assert unused_imports(source) == [(1, "gcd"), (4, "os")]


def test_a_use_in_another_function_does_not_count():
    source = "def f():\n    import json\n    return 0\ndef g(json):\n    return json\n"
    assert unused_imports(source) == [(2, "json")]


def _names(tree) -> Counter:
    """How often each name is read or bound in code under tree, as a plain
    name or as an attribute; docstrings and other strings do not count."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _defined_names(node) -> list[str]:
    """The names a top-level statement defines: a function's or a class's,
    or each plain name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def unreferenced_definitions(sources, kept=frozenset()) -> list[tuple[str, str]]:
    """(module, name) for each function, class or assigned name defined at
    the top level of the sources (module name -> source text) that no code in
    them names outside the definition itself, unless (module, name) is kept
    or the name is a dunder (a protocol hook such as a module's __getattr__,
    or __all__)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unreferenced = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined_names(node):
                if (module, name) in kept or (name.startswith("__") and name.endswith("__")):
                    continue
                if used[name] == _names(node)[name]:
                    unreferenced.append((module, name))
    return sorted(unreferenced)


def test_every_definition_is_reached_from_src():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    exported = {
        (getattr(hecke_eta, name).__module__.rpartition(".")[2], name)
        for name in hecke_eta.__all__
    }
    traced = {(module, path.split(".")[0]) for module, path in _targets()}
    assert unreferenced_definitions(sources, exported | traced) == []


def test_detects_an_unreferenced_definition():
    sources = {
        "a": (
            "def used():\n    return 0\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class Kept:\n    pass\n"
            "def __getattr__(name):\n    return name\n"
            "__all__ = ['used']\n"
            "LIMIT: int = 3\n"
            "LEFT, OVER = 1, 2\n"
        ),
        "b": (
            "from .a import used\n"
            "from . import a\n"
            "x = used() + a.attr() + a.LIMIT + OVER\n"
            "def attr():\n    \"\"\"Calls recursive; reads LEFT.\"\"\"\n"
        ),
    }
    assert unreferenced_definitions(sources, {("a", "Kept"), ("b", "x")}) == [
        ("a", "LEFT"), ("a", "recursive")
    ]
    assert unreferenced_definitions(sources) == [("a", "Kept"), ("a", "LEFT"), ("a", "recursive"), ("b", "x")]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) for each _-prefixed name, dunders aside, that source
    imports from a hecke_eta module or reads as an attribute of a hecke_eta
    module it imports (from . import analytic; from hecke_eta import cli)."""
    tree = ast.parse(source)
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "hecke_eta")
    ]
    modules = {
        a.asname or a.name for n in imports if n.module in (None, "hecke_eta") for a in n.names
    }
    reads = [(n.lineno, a.name) for n in imports for a in n.names if _private(a.name)]
    reads += [
        (n.lineno, n.attr) for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id in modules and _private(n.attr)
    ]
    return sorted(reads)


def test_cli_reads_no_private_name_of_a_layer():
    assert private_reads((SRC / "cli.py").read_text()) == []


def test_detects_a_private_read():
    source = (
        "from . import analytic\n"
        "from .qseries import _halve, eta_series\n"
        "from hecke_eta.oracle import _norm as norm\n"
        "from .partitions import tables_s as _tables_s\n"
        "def f(obj):\n"
        "    from . import oracle as o\n"
        "    return analytic._plan, analytic.product_s, o._twist, analytic.__name__, obj._x\n"
    )
    assert private_reads(source) == [(2, "_halve"), (3, "_norm"), (7, "_plan"), (7, "_twist")]

