"""Every name a module under src/ imports is used in the scope that imports it.

An import left behind when the code that used it is deleted still loads its
module and still reads as a dependency, so each is reported by module, line
and name.  Names listed in a module's __all__ count as used (re-exports).
"""

import ast
from pathlib import Path

import pytest

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
