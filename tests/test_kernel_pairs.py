"""tools/kernel_pairs.py: both sides load into one interpreter, calls are
timed in alternating order, and a differing output sets the exit code."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "kernel_pairs.py"

SMALL = [("qseries", "eta_series", (5, 60)), ("qseries", "tau5_values", (30,))]


@pytest.fixture
def tool(monkeypatch):
    """The tool, with this checkout loaded as both of its sides; every
    module loaded meanwhile leaves sys.modules afterwards, and the tool's
    sys.dont_write_bytecode is undone."""
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("kernel_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for side in module.SIDES:
        module.load(ROOT, side)
    yield module
    for name in set(sys.modules) - before:
        del sys.modules[name]


def test_against_its_own_checkout(tool, capsys):
    assert tool.compare({"deep": SMALL}, reps=2) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("deep qseries.eta_series(5, 60): parent ")
    assert lines[0].endswith("(parent first)") and lines[1].endswith("(change first)")
    assert lines[2].startswith("deep: 2 calls, median ratio ")
    assert lines[3] == "0 of 2 calls differ in output"


def test_each_side_runs_its_own_package(tool):
    parent, change = (importlib.import_module(f"{side}.qseries") for side in tool.SIDES)
    assert parent is not change and parent.eta_series is not change.eta_series
    assert change.__file__ == str(ROOT / "src" / "hecke_eta" / "qseries.py")


def test_a_differing_output_exits_1(tool, monkeypatch, capsys):
    qseries = importlib.import_module("change.qseries")
    eta_series = qseries.eta_series
    monkeypatch.setattr(qseries, "eta_series", lambda D, N: eta_series(D, N - 1))
    assert tool.compare({"deep": SMALL}, reps=1) == 1
    out = capsys.readouterr().out
    assert "eta_series(5, 60)" in out.split("OUTPUT DIFFERS")[0]
    assert out.endswith("1 of 2 calls differ in output\n")


def test_large_point_arguments(tool):
    """Each kind of argument that LARGE builds, at a small size."""
    for call in [("cyclotomic", "period_polynomials", ("chi", 13)),
                 ("qseries", "_conv_bytes", ("eta13^2 norms", 20)),
                 ("qseries", "_mul_pairs", ("eta13^2", 20))]:
        assert tool.time_pair(call, 1, "parent")["same"]
    assert {(m, f) for m, f, _ in tool.LARGE} >= {("qseries", "_conv_bytes"), ("oracle", "a_via_convolution")}


def test_deep_calls_follow_the_workload(tool):
    calls = tool.deep_calls([1])
    assert len(calls) == 26
    assert {f for _, f, _ in calls} == {"eta_series", "tau5_values"}
    assert all(200 <= args[1] <= 1000 for _, f, args in calls if f == "eta_series")
