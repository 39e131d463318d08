"""Time the exact kernel of this checkout against another checkout in one process.

Usage: python3 tools/kernel_pairs.py OTHER_CHECKOUT [--reps K] [--seeds S]

Both checkouts' src/hecke_eta load into this one interpreter, OTHER_CHECKOUT's
as the package `parent` and this checkout's as `change`; the package imports
itself relatively, so each copy keeps its own modules.  The calls are every
eta_series and tau5_values call that the jobs of the `deep` workload make at
the seeds S (comma-separated, 1,2 by default), with the job lists of
benchmarks/workloads.py at BENCHMARK.json's run_seconds (read, never
written, here, as tools/compare_jobs.py reads them), then the points of
LARGE.  Each call runs on both sides K times (3 by default), the side that
goes first alternating from call to call, and each side's time is the best
of its K runs of time.process_time.  One line per call gives both times and
the ratio change/parent; then, for the deep calls and the large points
apart, the median ratio and the total ratio.  The exit code is 1 if any
call's output differs between the sides, else 0.  A kernel change that no
benchmark workload can resolve (a job spends most of its time starting the
interpreter) shows here.  Standard library only; no bytecode is written.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")

# Points past the deep workload's sizes, each at about 0.5-3 s: the kernel at
# large N and at large D, the period polynomials at large degree, the oracle
# at the crosscheck workload's largest N, and the truncated pair product
# with its own slot bound on eta_13^2.
LARGE = [
    ("qseries", "eta_series", (100049, 1000)),
    ("qseries", "eta_series", (1001, 2000)),
    ("qseries", "eta_series", (5, 4000)),
    ("qseries", "eta_series", (29, 3000)),
    ("cyclotomic", "period_polynomials", ("chi", 1001)),
    ("cyclotomic", "period_polynomials", ("chi", 10009)),
    ("oracle", "a_via_convolution", (41, 36)),
    ("oracle", "a_via_convolution", (21, 68)),
    ("oracle", "a_via_convolution", (13, 73)),
    ("qseries", "_conv_bytes", ("eta13^2 norms", 1000)),
    ("qseries", "_mul_pairs", ("eta13^2", 1000)),
]


def load(checkout: Path, name: str):
    """checkout's src/hecke_eta, imported as the package name."""
    src = checkout / "src" / "hecke_eta"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def deep_calls(seeds: list[int]) -> list[tuple[str, str, tuple]]:
    """(module, function, args) of every kernel call of the deep jobs."""
    path = ROOT / "benchmarks" / "workloads.py"
    namespace = {"__name__": "workloads"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    calls = []
    for seed in seeds:
        for job in namespace["generate"]("deep", seed, seconds):
            argv = job["cli"]
            N = int(argv[argv.index("--N") + 1])
            if argv[0] == "delta5":
                calls.append(("qseries", "tau5_values", (N,)))
            else:
                calls.append(("qseries", "eta_series", (int(argv[argv.index("--D") + 1]), N)))
    return calls


def _args(package: str, args: tuple) -> tuple:
    """The arguments of a LARGE point, built once per side outside the timing."""
    mod = importlib.import_module
    if args[0] == "chi":
        return (mod(f"{package}.characters").build_char_table(args[1]),)
    if args[0] in ("eta13^2", "eta13^2 norms"):
        N = args[1]
        coeffs = mod(f"{package}.qseries").eta_series(13, N).coeffs
        A = [c.num_a for c in coeffs]
        B = [c.num_b for c in coeffs]
        if args[0] == "eta13^2":
            return A, B, A, B, 13, N
        return [abs(a) + 13 * abs(b) for a, b in zip(A, B)], [abs(a) + abs(b) for a, b in zip(A, B)], N + 1
    return args


def plain(value):
    """value with every RingElem a (num_a, num_b, D) tuple and every other
    tuple, list or dict read through, so the two sides' outputs compare."""
    if hasattr(value, "num_a"):
        return value.num_a, value.num_b, value.D
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    return value


def time_pair(call: tuple[str, str, tuple], reps: int, first: str) -> dict:
    """Best process_time of reps runs of call on each side, and its outputs."""
    module, function, args = call
    order = SIDES if first == "parent" else SIDES[::-1]
    fns = {s: getattr(importlib.import_module(f"{s}.{module}"), function) for s in SIDES}
    side_args = {s: _args(s, args) for s in SIDES}
    best = dict.fromkeys(SIDES, float("inf"))
    out = {}
    for _ in range(reps):
        for side in order:
            gc.collect()
            t0 = time.process_time()
            result = fns[side](*side_args[side])
            best[side] = min(best[side], time.process_time() - t0)
            out[side] = result
    return {"seconds": best, "same": plain(out["parent"]) == plain(out["change"])}


def _label(call: tuple[str, str, tuple]) -> str:
    module, function, args = call
    return f"{module}.{function}({', '.join(map(str, args))})"


def compare(groups: dict[str, list], reps: int) -> int:
    """Time every call of each group on both sides; print a line per call
    and per group; 1 if any output differs, else 0."""
    differ = 0
    i = 0
    for group, calls in groups.items():
        ratios = []
        totals = dict.fromkeys(SIDES, 0.0)
        for call in calls:
            first = SIDES[i % 2]
            i += 1
            row = time_pair(call, reps, first)
            t = row["seconds"]
            ratio = t["change"] / t["parent"] if t["parent"] else float("nan")
            ratios.append(ratio)
            for side in SIDES:
                totals[side] += t[side]
            mark = "" if row["same"] else "  OUTPUT DIFFERS"
            differ += not row["same"]
            print(f"{group} {_label(call)}: parent {t['parent'] * 1e3:.2f} ms, "
                  f"change {t['change'] * 1e3:.2f} ms, ratio {ratio:.3f} ({first} first){mark}",
                  flush=True)
        total = totals["change"] / totals["parent"] if totals["parent"] else float("nan")
        print(f"{group}: {len(calls)} calls, median ratio {statistics.median(ratios):.3f}, "
              f"total ratio {total:.3f} (parent {totals['parent']:.3f} s, change {totals['change']:.3f} s)")
    print(f"{differ} of {i} calls differ in output")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, metavar="OTHER_CHECKOUT")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seeds", default=[1, 2], type=lambda s: [int(x) for x in s.split(",")])
    args = parser.parse_args(argv)
    load(args.other.resolve(), "parent")
    load(ROOT, "change")
    return compare({"deep": deep_calls(args.seeds), "large": LARGE}, args.reps)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
