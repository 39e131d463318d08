"""The benchmark's job lists, read through tools/compare_jobs.py: every cli
job is a canonical command line, and the tool lists each job whose exit
code, stdout or stderr differs between two checkouts and fails the run.

The tool reads benchmarks/workloads.py from its text, so these tests write
no bytecode under benchmarks/.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from hecke_eta import cli

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_jobs.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("compare_jobs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_jobs_are_canonical(tool):
    """Every cli job of the four workloads, seeds 1 to 5, is a canonical
    line, [command, flag, value, ...] with each flag of cli.COMMANDS in full
    and once, that cli._parse reads, so that no benchmark job loads
    argparse, gettext or locale, which the wide workload's peak RSS leaves
    out, and each takes _parse's exact flag match."""
    generators, generate = tool.load_workloads()
    assert sorted(generators) == ["crosscheck", "deep", "numeric", "wide"]
    lines = {
        workload: [job["cli"] for seed in range(1, 6) for job in generate(workload, seed, tool.SECONDS)
                   if "cli" in job]
        for workload in generators
    }
    assert all(lines.values())

    def canonical(argv):
        flags = argv[1::2]
        return (len(argv) % 2 == 1 and len(set(flags)) == len(flags)
                and set(flags) <= set(cli.COMMANDS[argv[0]][2])
                and not isinstance(cli._parse(argv), str))

    assert [argv for argvs in lines.values() for argv in argvs if not canonical(argv)] == []


def test_same_checkout_reads_no_difference(tool, monkeypatch, capsys):
    jobs = [{"cli": ["chars", "--D", "5"]}, {"lib": "check_u_gamma", "args": {"ks": [1]}}]
    monkeypatch.setattr(tool, "load_workloads", lambda: ({"tiny": None}, lambda w, s, t: jobs))
    assert tool.main([str(tool.ROOT), "1"]) == 0
    assert capsys.readouterr().out == "0 of 2 jobs differ\n"


def test_a_differing_job_is_listed(tool, monkeypatch, capsys):
    jobs = [{"cli": ["chars", "--D", "5"]}, {"cli": ["chars", "--D", "13"]}]
    monkeypatch.setattr(tool, "load_workloads", lambda: ({"tiny": None}, lambda w, s, t: jobs))
    monkeypatch.setattr(
        tool, "run_job", lambda checkout, job: (0, repr((checkout, job)).encode(), b"")
    )
    assert tool.main(["elsewhere", "3,4"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == 'tiny seed 3 job 0: stdout differ: {"cli": ["chars", "--D", "5"]}'
    assert out[-1] == "4 of 4 jobs differ"
    assert len(out) == 5


def test_run_length_is_the_benchmarks(tool, monkeypatch, capsys):
    """The tool lists the jobs of a run of BENCHMARK.json's run_seconds."""
    lengths = []

    def generate(workload, seed, seconds):
        lengths.append(seconds)
        return []

    monkeypatch.setattr(tool, "load_workloads", lambda: ({"tiny": None}, generate))
    assert tool.main([str(tool.ROOT), "1,2"]) == 0
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert lengths == [run_seconds] * 2 == [tool.SECONDS] * 2
    assert capsys.readouterr().out == "0 of 0 jobs differ\n"


def test_usage(tool, capsys):
    assert tool.main([]) == 2
    assert capsys.readouterr().err.startswith("Usage: python3 tools/compare_jobs.py")
