"""Compare the output of every benchmark job between two checkouts.

Usage: python3 tools/compare_jobs.py OTHER_CHECKOUT [SEEDS]

SEEDS is a comma-separated list of seeds, 1,2 by default.  For each seed the
job list of each of the four workloads is benchmarks/workloads.py's
generate(workload, seed, SECONDS), the list of a benchmark run of
BENCHMARK.json's run_seconds (read, never written, here).  Every
job runs as a fresh process through each checkout's own benchmarks/job.py,
as benchmarks/run.py runs it: in the checkout's root, stdin closed and
HECKE_ETA_DIGITS unset.  The two checkouts' copies of a job run at once, as
two processes, and the next job starts once both have ended.  One line is
printed for each job whose exit code, stdout or stderr differs, then a
count; the exit code is 1 if any job differs, else 0.  Standard library
only; no bytecode is written.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def load_workloads():
    """This checkout's benchmarks/workloads.py, run from its text."""
    path = ROOT / "benchmarks" / "workloads.py"
    namespace = {"__name__": "workloads"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["GENERATORS"], namespace["generate"]


def run_job(checkout: Path, job: dict) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one job in a fresh process."""
    env = {k: v for k, v in os.environ.items() if k != "HECKE_ETA_DIGITS"}
    done = subprocess.run(
        [sys.executable, "-B", str(checkout / "benchmarks" / "job.py"), json.dumps(job)],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        cwd=checkout,
        env=env,
    )
    return done.returncode, done.stdout, done.stderr


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    seeds = [int(s) for s in argv[1].split(",")] if len(argv) == 2 else [1, 2]
    generators, generate = load_workloads()
    total = differ = 0
    with ThreadPoolExecutor(max_workers=1) as pool:
        for seed in seeds:
            for workload in generators:
                for i, job in enumerate(generate(workload, seed, SECONDS)):
                    total += 1
                    theirs = pool.submit(run_job, other, job)
                    ours, theirs = run_job(ROOT, job), theirs.result()
                    fields = [f for f, a, b in zip(("exit code", "stdout", "stderr"), ours, theirs) if a != b]
                    if fields:
                        differ += 1
                        print(f"{workload} seed {seed} job {i}: {', '.join(fields)} differ: {json.dumps(job)}")
    print(f"{differ} of {total} jobs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
