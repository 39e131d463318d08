"""Benchmark this checkout against a parent checkout in alternating pairs.

Usage: python3 tools/bench_pairs.py PARENT_CHECKOUT --workload W --seeds S --pairs 10 [--out FILE]

S is a comma-separated list of seeds; each seed gets --pairs pairs.  A pair
runs BENCHMARK.json's command (benchmarks/run.py) once in each checkout, at
the workload, the seed and BENCHMARK.json's run_seconds, the two one after
the other, and the side that goes first alternates from pair to pair.  Each
run's result is the last line of its stdout.  BENCHMARK.json is read, never
written, here, and only from this checkout, so both sides run the same
settings.

After each pair its failed/attempted counts are printed, and every run made
so far is written to FILE.  At the end one line is printed per end-to-end
metric: each side's median [quartiles], the pairs the change wins (ties
count for neither), the relative change of the medians next to the metric's
bound, and whether the gain rule holds: the change wins at least nine
tenths of all pairs, and its median is better than the parent's by more
than the parent's interquartile range.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")
WIN_SHARE = 0.9  # share of all pairs the change must win for a gain


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The result object of one benchmark run in checkout."""
    argv = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"])]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by statistics.quantiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per metric of BENCHMARK.json's end_to_end over the pairs."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        sign = 1 if metric["better"] == "higher" else -1
        values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        relative = (change[1] - parent[1]) / parent[1]
        rows.append({
            "metric": name, "unit": metric["unit"], "better": metric["better"],
            "parent": parent, "change": change, "wins": wins, "pairs": len(runs),
            "relative": relative, "bound": metric["bound"],
            "within_bound": -sign * relative <= metric["bound"],
            "gain": wins >= WIN_SHARE * len(runs)
            and sign * (change[1] - parent[1]) > parent[2] - parent[0],
        })
    return rows


def report(row: dict) -> str:
    def side(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    return (
        f"{row['metric']} ({row['unit']}, {row['better']} is better): "
        f"parent {side(row['parent'])}, change {side(row['change'])}; "
        f"change wins {row['wins']}/{row['pairs']}; median {row['relative']:+.1%} "
        f"(bound {row['bound']:.0%}: {'within' if row['within_bound'] else 'WORSE'}); "
        f"gain rule {'holds' if row['gain'] else 'does not hold'}"
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_CHECKOUT")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=lambda s: [int(x) for x in s.split(",")])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    record = {
        "workload": args.workload, "seeds": args.seeds, "pairs_per_seed": args.pairs,
        "command": BENCHMARK["command"], "run_seconds": BENCHMARK["run_seconds"],
        "python": platform.python_version(), "machine": platform.machine(),
        "runs": [],
    }
    for seed in args.seeds:
        for i in range(args.pairs):
            first = SIDES[len(record["runs"]) % 2]
            order = SIDES if first == "parent" else SIDES[::-1]
            run = {"seed": seed, "pair": i, "first": first}
            for side in order:
                run[side] = run_once(checkouts[side], args.workload, seed)
            record["runs"].append(run)
            counts = ", ".join(f"{s} {run[s]['failed']}/{run[s]['attempted']} failed" for s in SIDES)
            print(f"seed {seed} pair {i} ({first} first): {counts}", flush=True)
            if args.out:
                args.out.write_text(json.dumps(record, indent=1) + "\n")
    record["summary"] = summarize(record["runs"], BENCHMARK["end_to_end"])
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    for row in record["summary"]:
        print(report(row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
