"""Seeded job generators for the four benchmark workloads.

A job is a JSON-able dict: ``{"cli": [argv...]}`` runs the ``hecke-eta``
command line, ``{"lib": name, "args": {...}}`` calls a name exported from
``hecke_eta`` (see ``job.py``).  The program only ever sees these generated
arguments.

Every workload draws its job sizes by stratified sampling: the size range of
a job kind, or of kinds that cost alike, is cut into as many equal strata
(log-scale where the cost is steep in the size) as there are such jobs, and
one size is drawn near the centre of each stratum; D values are spread the
same way over a list ordered by cost, or taken round-robin.  The proportions of the job kinds are fixed.
Two seeds therefore give different jobs (sizes, the kind run at each size,
formats, order, sample points, words) of nearly the same total size, which
keeps the end-to-end metrics steady from seed to seed.

Why each workload exists, and which layer it is meant to stress, is in
``README.md`` next to this file.
"""

from __future__ import annotations

import math
import random

# Mean job wall time (spawn to exit) per workload, measured on the reference
# machine (2 vCPU, Python 3.11).  The number of jobs in a run is
# seconds / JOB_S_REF, so the job count, and with it the percentile that
# job_s.tail reports, is the same for every run of one workload.
JOB_S_REF = {
    "deep": 0.95,
    "wide": 0.67,
    "crosscheck": 0.75,
    "numeric": 0.50,
}
MIN_JOBS = 12
JITTER = 0.3


def _squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def fundamentals(lo: int, hi: int) -> list[int]:
    """Fundamental D = 1 mod 4 in [lo, hi] (own test, not the program's)."""
    return [D for D in range(max(lo, 5), hi + 1) if D % 4 == 1 and _squarefree(D)]


def totient(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def _spread(rng: random.Random, count: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """One value near the centre of each of `count` equal strata of [lo, hi], ascending.

    The seed moves each value within the middle JITTER share of its stratum,
    so two seeds give different values with nearly the same total cost.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    xs = [a + (i + 0.5 + JITTER * (rng.random() - 0.5)) * (b - a) / count for i in range(count)]
    return [math.exp(x) for x in xs] if log else xs


def _pick(rng: random.Random, ordered: list, count: int) -> list:
    """`count` items spread evenly over `ordered` (cheapest first), in seeded order."""
    items = [ordered[min(len(ordered) - 1, int(f))] for f in _spread(rng, count, 0, len(ordered))]
    rng.shuffle(items)
    return items


def _cycle(values: list, count: int) -> list:
    """`count` values taken round-robin from `values`."""
    return [values[i % len(values)] for i in range(count)]


def _counts(pattern: list, total: int) -> dict:
    """How many jobs of each kind: `pattern` repeated, cut at `total` jobs."""
    counts = dict.fromkeys(pattern, 0)
    for item in _cycle(pattern, total):
        counts[item] += 1
    return counts


def deep(rng: random.Random, total: int) -> list[dict]:
    """Exact kernel at depth: small D, N from 200 to 1000 (delta5: 100 to 500)."""
    counts = _counts(["coeffs", "coeffs-json", "signs", "growth", "delta5"], total)
    kinds = [kind for kind in ("coeffs", "coeffs-json", "signs", "growth") for _ in range(counts[kind])]
    rng.shuffle(kinds)
    # One N per stratum, with D cycling over the strata: every seed runs the same
    # (N level, D) pairs; the seed moves N inside its stratum and decides which
    # kind runs at which level.
    ns = _spread(rng, len(kinds), 200, 1000, log=True)
    jobs = []
    for kind, N, D in zip(kinds, ns, _cycle([5, 13, 17, 21], len(kinds))):
        argv = [kind.split("-")[0], "--D", str(D), "--N", str(round(N))]
        if kind == "coeffs-json":
            argv += ["--format", "json"]
        elif kind == "growth":
            argv += ["--format", rng.choice(["csv", "json"])]
        jobs.append({"cli": argv})
    for N in _spread(rng, counts["delta5"], 100, 500, log=True):
        jobs.append({"cli": ["delta5", "--N", str(round(N)), "--format", rng.choice(["csv", "json"])]})
    rng.shuffle(jobs)
    return jobs


def wide(rng: random.Random, total: int) -> list[dict]:
    """Large D (high period-polynomial degree) at small N."""
    counts = _counts(["coeffs", "periods", "coeffs", "periods", "lvalues", "chars"], total)
    # Both coeffs and periods cost about as much as period_polynomials, about
    # phi(D) * D^2: spread them together over D ordered by that cost.
    by_cost = sorted(fundamentals(100, 200), key=lambda D: totient(D) * D * D)
    heavy = ["coeffs"] * counts["coeffs"] + ["periods"] * counts["periods"]
    rng.shuffle(heavy)
    ds = [by_cost[min(len(by_cost) - 1, int(f))] for f in _spread(rng, len(heavy), 0, len(by_cost))]
    ns = [round(N) for N in _spread(rng, counts["coeffs"], 10, 100)]
    rng.shuffle(ns)
    jobs = []
    for kind, D in zip(heavy, ds):
        argv = [kind, "--D", str(D)]
        if kind == "coeffs":
            argv += ["--N", str(ns.pop())]
        jobs.append({"cli": argv})
    for kind in ("lvalues", "chars"):
        jobs += [{"cli": [kind, "--D", str(D)]} for D in _pick(rng, by_cost, counts[kind])]
    rng.shuffle(jobs)
    return jobs


# Largest oracle-check N per D, so that no single job runs much past 3 s:
# the oracle costs about phi(D)/2 * N^2 * D^2 cyclotomic products.
ORACLE_N_MAX = {5: 80, 13: 80, 17: 80, 21: 80, 29: 50, 33: 50, 41: 40}


def crosscheck(rng: random.Random, total: int) -> list[dict]:
    """The independent partition route: oracle, partition tables, golden table."""
    counts = _counts(
        ["oracle-check", "partitions", "oracle-check", "oracle-check", "verify-table", "oracle-check", "oracle-check"],
        total,
    )
    jobs = []
    for D, count in _counts(sorted(ORACLE_N_MAX), counts["oracle-check"]).items():
        for N in _spread(rng, count, 20, ORACLE_N_MAX[D]):
            jobs.append({"cli": ["oracle-check", "--D", str(D), "--N", str(round(N))]})
    # Largest N with smallest D, so the biggest table (N * D entries), and with
    # it the peak RSS, is about the same for every seed.
    part_ns = _spread(rng, counts["partitions"], 100, 400, log=True)[::-1]
    part_ds = sorted(_pick(rng, fundamentals(5, 101), counts["partitions"]))
    for D, N in zip(part_ds, part_ns):
        jobs.append({"cli": ["partitions", "--D", str(D), "--N", str(round(N))]})
    jobs += [{"cli": ["verify-table"]} for _ in range(counts["verify-table"])]
    rng.shuffle(jobs)
    return jobs


def numeric(rng: random.Random, total: int) -> list[dict]:
    """The floating-point law checks, which never touch the exact kernel.

    verify-modularity keeps the default --nmax 300 for every D <= 101 and
    check_u_gamma takes words up to length 10: both give known false FAILs
    (truncation too short for D >= 61, n_max capped at 2e6 for deep words),
    which the benchmark counts as failed jobs rather than avoiding.
    """
    counts = _counts(
        ["verify-modularity", "grid", "check_u_gamma", "verify-modularity", "check_phi_relation"], total
    )
    jobs = []
    for D in _pick(rng, fundamentals(5, 101), counts["verify-modularity"]):
        seed = rng.randrange(1, 2**31)
        jobs.append({"cli": ["verify-modularity", "--D", str(D), "--seed", str(seed)]})
    n_grid = counts["grid"]
    sizes = zip(_cycle([5, 13, 17], n_grid), _spread(rng, n_grid, 5, 20), _spread(rng, n_grid, 2, 6))
    for D, re_n, im_n in sizes:
        argv = ["grid", "--D", str(D), "--re-steps", str(round(re_n)), "--im-steps", str(round(im_n))]
        jobs.append({"cli": argv})
    for length in _spread(rng, counts["check_u_gamma"], 1, 11):
        ks = [rng.randint(-3, 3) for _ in range(int(length))]
        jobs.append({"lib": "check_u_gamma", "args": {"ks": ks}})
    n_phi = counts["check_phi_relation"]
    for D, y in zip(_cycle([5, 13, 17, 21, 29], n_phi), _spread(rng, n_phi, 0.5, 2.0, log=True)):
        jobs.append({"lib": "check_phi_relation", "args": {"D": D, "y": round(y, 4)}})
    rng.shuffle(jobs)
    return jobs


GENERATORS = {"deep": deep, "wide": wide, "crosscheck": crosscheck, "numeric": numeric}


def job_count(workload: str, seconds: float) -> int:
    return max(MIN_JOBS, round(seconds / JOB_S_REF[workload]))


def generate(workload: str, seed: int, seconds: float) -> list[dict]:
    """The job list of one run; the same (workload, seed, seconds) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, job_count(workload, seconds))
