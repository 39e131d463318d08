"""One small job of each benchmark kind, run by benchmarks/job.py traced and
untraced: the tracer's wrappers and extractors must leave stdout and the exit
code as they are and add exactly one span line on stderr.

python -B keeps bytecode out of benchmarks/, so this test changes nothing
there.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

JOB = Path(__file__).resolve().parents[1] / "benchmarks" / "job.py"
SPAN_PREFIX = "@@spans "

JOBS = {
    "coeffs": {"cli": ["coeffs", "--D", "13", "--N", "30"]},
    "delta5": {"cli": ["delta5", "--N", "20", "--format", "json"]},
    "oracle-check": {"cli": ["oracle-check", "--D", "13", "--N", "8"]},
    "periods": {"cli": ["periods", "--D", "101"]},
    "partitions": {"cli": ["partitions", "--D", "13", "--N", "20"]},
    "lvalues": {"cli": ["lvalues", "--D", "101"]},
    "grid": {"cli": ["grid", "--D", "5", "--re-steps", "3", "--im-steps", "2", "--nmax", "100"]},
    "verify-modularity": {"cli": ["verify-modularity", "--D", "13", "--samples", "2"]},
    "check_u_gamma": {"lib": "check_u_gamma", "args": {"ks": [1, 2, 3]}},
    "check_phi_relation": {"lib": "check_phi_relation", "args": {"D": 13, "y": 1.0}},
}


def _run(job, *trace):
    return subprocess.run(
        [sys.executable, "-B", str(JOB), json.dumps(job), *trace],
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("kind", JOBS)
def test_traced_job_matches_untraced(kind):
    plain = _run(JOBS[kind])
    traced = _run(JOBS[kind], "--trace", "1")
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert plain.stdout and traced.stdout == plain.stdout
    assert SPAN_PREFIX not in plain.stderr
    lines = [line for line in traced.stderr.splitlines() if line.startswith(SPAN_PREFIX)]
    assert len(lines) == 1
    record = json.loads(lines[0][len(SPAN_PREFIX) :])
    assert record["job"] == "1" and record["spans"]
