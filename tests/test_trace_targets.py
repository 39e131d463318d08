"""The benchmark tracer wraps hecke_eta functions by name; each name must resolve.

benchmarks/tracer.py is read as text (never imported), so this test changes
nothing under benchmarks/.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError(f"no TARGETS list in {TRACER}")


@pytest.mark.parametrize("module, path", _targets())
def test_trace_target_resolves(module, path):
    owner = importlib.import_module(f"hecke_eta.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
