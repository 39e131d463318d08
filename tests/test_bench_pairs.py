"""tools/bench_pairs.py: the summary of alternating benchmark pairs, on
synthetic runs, and the order and record of the runs it makes."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"

LOWER = {"name": "job_s.p50", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(value, failed=0):
    return {"attempted": 37, "failed": failed,
            "metrics": {m["name"]: {"value": value, "unit": m["unit"]} for m in END_TO_END}}


def _runs(parent, change):
    return [{"parent": _result(p), "change": _result(c)} for p, c in zip(parent, change)]


# ten parent values: median 11.25, quartiles 10.375 and 12.125, IQR 1.75
PARENT = [10.0, 11.0, 12.0, 10.5, 11.5, 12.5, 11.0, 12.0, 10.0, 13.0]


def test_ties_count_for_neither(tool):
    (row,) = tool.summarize(_runs(PARENT, PARENT), [HIGHER])
    assert row["wins"] == 0 and row["pairs"] == 10
    assert row["relative"] == 0 and row["within_bound"] and not row["gain"]
    assert row["parent"] == row["change"] == pytest.approx((10.375, 11.25, 12.125))


@pytest.mark.parametrize("metric, step, wins", [(HIGHER, 2.0, 10), (HIGHER, -2.0, 0),
                                                (LOWER, -2.0, 10), (LOWER, 2.0, 0)])
def test_both_directions(tool, metric, step, wins):
    """A change better in every pair wins them all and meets the rule; one
    worse in every pair wins none."""
    (row,) = tool.summarize(_runs(PARENT, [p + step for p in PARENT]), [metric])
    assert row["wins"] == wins and row["gain"] == (wins == 10)
    assert row["relative"] == pytest.approx(step / 11.25)


@pytest.mark.parametrize("losses, gain", [(1, True), (2, False)])
def test_nine_of_ten_pairs(tool, losses, gain):
    """The change is 3 better but for losses pairs, where it is 1 worse:
    9 of 10 meets the rule, 8 of 10 does not, with medians far apart."""
    change = [p + (-1.0 if i < losses else 3.0) for i, p in enumerate(PARENT)]
    (row,) = tool.summarize(_runs(PARENT, change), [HIGHER])
    assert row["wins"] == 10 - losses
    assert row["change"][1] - row["parent"][1] > 1.75
    assert row["gain"] is gain


@pytest.mark.parametrize("step, gain", [(1.7, False), (1.8, True)])
def test_medians_must_differ_by_more_than_the_parents_iqr(tool, step, gain):
    """Every pair won, and the gain counts only past the parent's IQR of 1.75."""
    (row,) = tool.summarize(_runs(PARENT, [p + step for p in PARENT]), [HIGHER])
    assert row["wins"] == 10 and row["gain"] is gain


def test_bound_is_read_against_the_metrics_direction(tool):
    worse = [p * 1.3 for p in PARENT]
    rows = tool.summarize(_runs(PARENT, worse), [LOWER, HIGHER])
    assert [r["within_bound"] for r in rows] == [False, True]
    assert "bound 25%: WORSE" in tool.report(rows[0])


def test_runs_alternate_and_every_run_is_written(tool, monkeypatch, tmp_path, capsys):
    calls = []

    def run_once(checkout, workload, seed):
        calls.append((checkout == tool.ROOT, workload, seed))
        return _result(10.0 + len(calls), failed=int(checkout == tool.ROOT))

    monkeypatch.setattr(tool, "run_once", run_once)
    out = tmp_path / "runs.json"
    args = [str(tmp_path), "--workload", "wide", "--seeds", "3,4", "--pairs", "3", "--out", str(out)]
    assert tool.main(args) == 0
    sides = ["change" if ours else "parent" for ours, _, _ in calls]
    assert sides == ["parent", "change", "change", "parent"] * 3
    assert {(w, s) for _, w, s in calls} == {("wide", 3), ("wide", 4)}
    record = json.loads(out.read_text())
    assert [r["first"] for r in record["runs"]] == ["parent", "change"] * 3
    assert [(r["seed"], r["pair"]) for r in record["runs"]] == [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)]
    assert record["run_seconds"] == json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert [row["metric"] for row in record["summary"]] == [m["name"] for m in END_TO_END]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed 3 pair 0 (parent first): parent 0/37 failed, change 1/37 failed"
    assert len(lines) == 6 + len(END_TO_END)
