"""Per-layer metrics from the spans that traced jobs write on stderr.

Times and counts are totals over the traced jobs of one run, whose job list
is fixed by the seed, so a count repeats exactly from run to run of the same
code.  A span's self time is its duration minus the time of its direct child
spans; ``<module>.share`` is the self time of all of a module's spans as a
share of the traced jobs' wall time (spawn to exit), so it shows which layer
a workload stresses.
"""

from __future__ import annotations

import json
from collections import defaultdict

from tracer import SPAN_PREFIX

MODULES = ["cli", "characters", "lseries", "cyclotomic", "qseries", "quad_ring", "partitions", "oracle", "analytic"]

# (traced function, stat) pairs reported as "<function>.<stat>".
FUNCTION_METRICS = [
    ("characters.build_char_table", "calls"),
    ("characters.build_char_table", "s"),
    ("lseries.l_minus_one", "calls"),
    ("lseries.l_minus_one", "s"),
    ("lseries.l_prime_zero", "s"),
    ("cyclotomic.period_polynomials", "calls"),
    ("cyclotomic.period_polynomials", "s"),
    ("cyclotomic.project_to_quad", "calls"),
    ("cyclotomic.project_to_quad", "s"),
    ("cyclotomic.cyc_mul", "calls"),
    ("cyclotomic.cyc_mul", "s"),
    ("qseries.eta_series", "calls"),
    ("qseries.eta_series", "self_s"),
    ("qseries.series_pow", "s"),
    ("quad_ring.embed_real", "calls"),
    ("quad_ring.embed_real", "s"),
    ("partitions.length_distribution", "s"),
    ("partitions.p_nr_table", "s"),
    ("partitions.build_partition_tables", "s"),
    ("oracle.a_via_convolution", "self_s"),
    ("oracle.CycSeries.mul_dense", "calls"),
    ("oracle.CycSeries.mul_dense", "s"),
    ("oracle.compare_with_eta", "s"),
    ("analytic.log_eta_tail", "calls"),
    ("analytic.log_eta_tail", "s"),
    ("analytic.eval_eta_numeric", "calls"),
    ("analytic.eval_eta_numeric", "s"),
    ("analytic.check_u_gamma", "s"),
    ("analytic.check_phi_relation", "s"),
    ("golden.golden_coefficients", "calls"),
]
RESIDUAL_FUNCTIONS = {
    "analytic.check_inversion",
    "analytic.check_translation",
    "analytic.check_u_gamma",
    "analytic.check_phi_relation",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"cli.import_s": "s", "cli.self_s": "s", "cli.stdout_bytes": "bytes"}
    for fn, stat in FUNCTION_METRICS:
        units[f"{fn}.{stat}"] = "count" if stat == "calls" else "s"
    units["characters.build_char_table.repeat_ratio"] = "ratio"
    units["qseries.coeff_bits_max"] = "bits"
    units["analytic.log_eta_tail.terms"] = "count"
    units["analytic.residual_max"] = "1"
    for mod in MODULES:
        units[f"{mod}.share"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def _spans(stderr: bytes) -> dict | None:
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith(SPAN_PREFIX):
            return json.loads(line[len(SPAN_PREFIX) :])
    return None


def aggregate(results: list[dict]) -> tuple[dict, dict]:
    """(per-layer metrics without trace.overhead_s, per-function stat table)."""
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
    import_s = wall = 0.0
    stdout_bytes = distinct_d = bits_max = terms = 0
    residual_max = 0.0
    for res in results:
        traced = res["traced"]
        wall += traced["wall_s"]
        stdout_bytes += len(traced["stdout"])
        rec = _spans(traced["stderr"])
        if rec is None:  # killed before it could write its spans
            continue
        import_s += rec["import_s"]
        names, spans = rec["names"], rec["spans"]
        child_s = [0.0] * len(spans)
        for _, parent, t0, t1, _, _ in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        ds = set()
        for i, (ni, _, t0, t1, raised, extra) in enumerate(spans):
            name = names[ni]
            row = table[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_s[i]
            row["errors"] += raised
            if extra is None:
                continue
            if name == "characters.build_char_table":
                ds.add(extra)
            elif name == "qseries.eta_series":
                bits_max = max(bits_max, extra)
            elif name == "analytic.log_eta_tail":
                terms += extra
            elif name in RESIDUAL_FUNCTIONS:
                residual_max = max(residual_max, extra)
        distinct_d += len(ds)

    values = {
        "cli.import_s": import_s,
        "cli.self_s": table["cli.main"]["self_s"],
        "cli.stdout_bytes": stdout_bytes,
    }
    for fn, stat in FUNCTION_METRICS:
        values[f"{fn}.{stat}"] = table[fn][stat] if fn in table else 0
    calls = table["characters.build_char_table"]["calls"] if "characters.build_char_table" in table else 0
    values["characters.build_char_table.repeat_ratio"] = calls / distinct_d if distinct_d else 0.0
    values["qseries.coeff_bits_max"] = bits_max
    values["analytic.log_eta_tail.terms"] = terms
    values["analytic.residual_max"] = residual_max
    for mod in MODULES:
        self_s = sum(row["self_s"] for name, row in table.items() if name.split(".")[0] == mod)
        values[f"{mod}.share"] = self_s / wall
    units = metric_units()
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    return metrics, dict(table)
