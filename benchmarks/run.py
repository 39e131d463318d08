"""The hecke-eta benchmark: one closed-loop client, one job at a time.

Usage:
    python3 benchmarks/run.py --workload deep --seed 1 --seconds 25 --trace 0

Each job is a fresh process (``job.py``) running one ``hecke-eta`` command
line or one call to a name exported from ``hecke_eta``, with the package
taken from ``src/`` of this checkout.  The job list comes from the seed
(``workloads.py``) and its length from --seconds, so a seed replays exactly.
Every job's output is checked afterwards by ``checks.py``, which never calls
the timed code.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a shorter job list
twice per job, untraced and then traced (``tracer.py``), and reports the
per-layer metrics plus the tracing overhead.  The last line of stdout is the
result object; the line before it is the full run record (versions, nproc,
commit, seed, job list and per-job accounting).  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7  # trivial jobs per run behind setup_s
SETUP_JOB = {"cli": ["chars", "--D", "5"]}
SELF_TEST_JOB = {"cli": ["coeffs", "--D", "21", "--N", "60"]}
SELF_TEST_ROW = 45  # the coefficient the self-test corrupts; no golden value covers D = 21
JOB_TIMEOUT_S = 40.0  # a job still running after this is killed and counted failed
HARD_STOP = 3.0  # no job starts after HARD_STOP * --seconds of loop time
TRACE_SHARE = 0.4  # the traced run's job list is sized for this share of --seconds
TAIL_BEYOND = 10  # job_s.tail has at least this many jobs beyond it


class Spawner:
    """The helper process (spawner.py) that spawns every job and accounts for it."""

    def __init__(self):
        # Jobs use the default output precision and cache their bytecode under
        # src/, as an installed package would have it cached.
        drop = {"HECKE_ETA_DIGITS", "PYTHONDONTWRITEBYTECODE"}
        env = {k: v for k, v in os.environ.items() if k not in drop}
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )

    def run(self, job: dict, trace_id: int | None = None) -> dict:
        argv = [sys.executable, str(HERE / "job.py"), json.dumps(job)]
        if trace_id is not None:
            argv += ["--trace", str(trace_id)]
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout": JOB_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job spawner exited")
        res = json.loads(line)
        res["stdout"] = res["stdout"].encode("latin-1")
        res["stderr"] = res["stderr"].encode("latin-1")
        return res

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hecke_eta").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, traced: bool):
        import checks
        import workloads

        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        share = TRACE_SHARE if traced else 1.0
        self.jobs = workloads.generate(workload, seed, seconds * share)
        self.checks = checks
        self.checker = checks.Checker()
        self.problems: list[str] = []  # reasons the run is not correct

    def _verdict(self, job: dict, res: dict) -> tuple[str, str]:
        if res["timed_out"]:
            return "fail", f"timeout after {JOB_TIMEOUT_S:g} s"
        return self.checker.check(job, res["exit"], res["stdout"].decode())

    def setup(self, spawner: Spawner) -> float:
        """Median wall time of a trivial job, spawn to exit."""
        walls = []
        for _ in range(SETUP_REPEATS):
            res = spawner.run(SETUP_JOB)
            walls.append(res["wall_s"])
            verdict, why = self._verdict(SETUP_JOB, res)
            if verdict != "ok":
                self.problems.append(f"setup job {verdict}: {why}")
        return statistics.median(walls)

    def _self_test(self, res: dict) -> None:
        """A job whose output has one corrupted coefficient must count as failed."""
        verdict, why = self._verdict(SELF_TEST_JOB, res)
        if verdict != "ok":
            self.problems.append(f"self-test job {verdict}: {why}")
            return
        bad = self.checks.corrupt_one_coefficient(res["stdout"].decode(), SELF_TEST_ROW)
        if self.checker.check(SELF_TEST_JOB, 0, bad)[0] != "wrong":
            self.problems.append("self-test: a corrupted coefficient passed the check")

    def loop(self, spawner: Spawner) -> tuple[list[dict], float]:
        """Run the job list once, one job at a time; returns results and loop wall time."""
        results = []
        t0 = time.perf_counter()
        for i, job in enumerate(self.jobs):
            if time.perf_counter() - t0 > HARD_STOP * self.seconds:
                break
            res = spawner.run(job)
            if self.traced:
                res["traced"] = spawner.run(job, trace_id=i)
            results.append(res)
        return results, time.perf_counter() - t0

    def execute(self) -> tuple[dict, dict]:
        with Spawner() as spawner:
            setup_s = self.setup(spawner)
            self._self_test(spawner.run(SELF_TEST_JOB))
            results, loop_s = self.loop(spawner)
        rows = []
        for i, (job, res) in enumerate(zip(self.jobs, results)):
            verdict, why = self._verdict(job, res)
            if verdict == "wrong":
                self.problems.append(f"job {i} {job}: {why}")
            if self.traced and res["traced"]["stdout"] != res["stdout"]:
                self.problems.append(f"job {i}: traced stdout differs from untraced stdout")
            rows.append(
                {
                    "job": i,
                    "wall_s": res["wall_s"],
                    "cpu_s": res["cpu_s"],
                    "rss_mb": res["rss_mb"],
                    "exit": res["exit"],
                    "stdout_bytes": len(res["stdout"]),
                    "verdict": verdict,
                    "why": why,
                }
            )
        attempted = len(rows)
        failed = sum(r["verdict"] != "ok" for r in rows)
        walls = [r["wall_s"] for r in rows]
        tail_s, tail_pct = tail(walls)
        completed = sum(not res["timed_out"] for res in results)
        end_to_end = {
            "setup_s": _metric(setup_s, "s"),
            "job_s.p50": _metric(statistics.median(walls), "s"),
            "job_s.tail": _metric(tail_s, "s"),
            "jobs_per_s": _metric(completed / loop_s, "1/s"),
            "peak_rss_mb": _metric(max(r["rss_mb"] for r in rows), "MB"),
        }
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.traced),
            "python": platform.python_version(),
            "mpmath": importlib.metadata.version("mpmath"),
            "nproc": os.cpu_count(),
            "commit": _commit(),
            "src_sha256": _src_digest(),
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "job_s.tail_percentile": tail_pct,
            "job_s.samples": attempted,
            "loop_s": loop_s,
            "end_to_end": end_to_end,
            "jobs": self.jobs[:attempted],
            "results": rows,
            "problems": self.problems,
        }
        if self.traced:
            import layers

            per_layer, table = layers.aggregate(results)
            untraced = statistics.median(walls)
            traced = statistics.median(res["traced"]["wall_s"] for res in results)
            per_layer["trace.overhead_s"] = _metric(traced - untraced, "s")
            record["per_layer"] = per_layer
            record["functions"] = table
            metrics = per_layer
        else:
            metrics = end_to_end
        result = {
            "correct": not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        return record, result


def _report(record: dict) -> None:
    name = f"{record['workload']} seed={record['seed']}"
    for key, m in record["end_to_end"].items():
        extra = ""
        if key == "job_s.tail":
            extra = f"  (p{record['job_s.tail_percentile']:.1f} of {record['job_s.samples']} jobs)"
        print(f"{name}  {key} = {m['value']:.6g} {m['unit']}{extra}")
    print(f"{name}  error_rate = {record['error_rate']:.4f}  ({record['failed']}/{record['attempted']} jobs failed)")
    for key, m in record.get("per_layer", {}).items():
        print(f"{name}  {key} = {m['value']:.6g} {m['unit']}")
    for row in record["results"]:
        if row["verdict"] != "ok":
            print(f"{name}  job {row['job']} {row['verdict']}: {row['why']}  {record['jobs'][row['job']]}")
    for problem in record["problems"]:
        print(f"{name}  PROBLEM: {problem}")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hecke_eta" / "__init__.py").is_file():
        print(f"error: no hecke_eta package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record, result = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    _report(record)
    print(json.dumps({"record": record}, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
