"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here, not configurable.
"""

import json
import math
import subprocess
import sys
import time

from oracles import (
    TAU5_DISPLAY_VARIANT,
    count_partitions_with_parts,
    fundamental_discriminants,
    random_words,
)

from hecke_eta import analytic
from hecke_eta.characters import build_char_table
from hecke_eta.cli import main as cli_main
from hecke_eta.golden import TAU5_TABLE
from hecke_eta.lseries import l_minus_one
from hecke_eta.oracle import compare_with_eta
from hecke_eta.partitions import (
    length_distribution,
    p_nr_table,
    p_table,
    pentagonal_int_series,
)
from hecke_eta.qseries import eta_series, tau5_values
from hecke_eta.quad_ring import embed_real


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_table_reproduction(capsys):
    t0 = time.monotonic()
    code = cli_main(["verify-table"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    ok = code == 0 and "82/82 entries verified" in out and elapsed < 10.0
    with capsys.disabled():
        report(1, ok, f"verify-table exit {code}, 82/82 exact, {elapsed:.2f}s (< 10 s)")
    assert code == 0
    assert "82/82 entries verified" in out
    assert elapsed < 10.0


def test_criterion_02_delta5_expansion(capsys):
    taus = tau5_values(7)
    mismatch = [
        n for n in range(1, 7)
        if (taus[n].num_a, taus[n].num_b) != TAU5_TABLE[n]
    ]
    named_ok = (taus[4].num_a, taus[4].num_b) == (-560, -340) and (
        taus[5].num_a,
        taus[5].num_b,
    ) == (2830, 980)
    # the sixth printed display constant is tau_5(7): its printed index fails
    # the fifth-power consistency check against the a_5 table (see golden.py)
    variant_index, variant_pair = TAU5_DISPLAY_VARIANT
    variant_is_tau7 = (taus[7].num_a, taus[7].num_b) == variant_pair
    variant_not_tau6 = (taus[variant_index].num_a, taus[variant_index].num_b) != variant_pair
    ok = not mismatch and named_ok and variant_is_tau7 and variant_not_tau6
    with capsys.disabled():
        report(
            2,
            ok,
            "tau_5(1..6) exact incl. tau_5(4) = -280-170*sqrt5, tau_5(5) = "
            "1415+490*sqrt5; printed 6th display constant verified exactly as "
            "tau_5(7) (source display misindexes it; tau_5(6) = -3276-1880*sqrt5)",
        )
    assert not mismatch
    assert named_ok
    assert variant_is_tau7 and variant_not_tau6


def test_criterion_03_l_values(capsys):
    from fractions import Fraction

    t0 = time.monotonic()
    rec5 = l_minus_one(build_char_table(5))
    ok = rec5.l_minus_one == Fraction(-2, 5)
    checked = 0
    for D in fundamental_discriminants(1000):
        if D == 5:
            continue
        rec = l_minus_one(build_char_table(D))
        ok = ok and rec.l_minus_one.denominator == 1 and rec.l_minus_one < 0
        ok = ok and rec.l_minus_one % 2 == 0 and rec.S_chi % (4 * D) == 0
        checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    with capsys.disabled():
        report(
            3,
            ok,
            f"L(-1, chi_5) = -2/5; {checked} discriminants 5 < D <= 1000 all "
            f"negative even with 4D | S_chi, {elapsed:.2f}s (< 5 s)",
        )
    assert ok


def test_criterion_04_oracle_equivalence(capsys):
    t0 = time.monotonic()
    results = {}
    for D, N in ((5, 40), (13, 40), (17, 25)):
        _, mismatches = compare_with_eta(D, N)
        results[D] = (N, mismatches)
    elapsed = time.monotonic() - t0
    ok = all(not m for _, m in results.values()) and elapsed < 60.0
    with capsys.disabled():
        report(
            4,
            ok,
            "convolution oracle = direct product exactly for D=5,13 (N<=40) "
            f"and D=17 (N<=25), {elapsed:.2f}s (< 60 s)",
        )
    assert ok


def test_criterion_05_modularity_residuals(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for D in (5, 13, 17):
        for z in analytic.sample_half_plane_points(D, 20):
            worst = max(worst, analytic.check_inversion(D, z, 300))
            worst = max(worst, analytic.check_translation(D, z, 300))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    with capsys.disabled():
        report(
            5,
            ok,
            f"inversion+translation residuals at 20 points x 3 discriminants: "
            f"worst {worst:.2e} (< 1e-6), {elapsed:.2f}s (< 30 s)",
        )
    assert ok


def test_criterion_06_phi_relation(capsys):
    worst = 0.0
    for D in (5, 13):
        for y in (0.7, 1.0, 1.5):
            worst = max(worst, analytic.check_phi_relation(D, y, 400, 30))
    ok = worst < 1e-8
    with capsys.disabled():
        report(
            6,
            ok,
            f"Phi#/Phi identity on the imaginary axis, D in {{5,13}}, "
            f"y in {{0.7,1.0,1.5}}, n_max=400: worst residual {worst:.2e} (< 1e-8)",
        )
    assert ok


def test_criterion_07_multiplier_law(capsys):
    words = random_words(100, max_len=6, k_range=2, seed=424242)
    exact_ok = all(analytic.predicted_u(w) == sum(w.ks) % 5 for w in words)
    worst = max(analytic.check_u_gamma(w) for w in words)
    ok = exact_ok and worst < 1e-4
    with capsys.disabled():
        report(
            7,
            ok,
            f"100 random words (length <= 6): predicted multiplier = sum k_i mod 5 "
            f"exactly; numeric ratio residual worst {worst:.2e} (< 1e-4)",
        )
    assert ok


def test_criterion_08_growth_envelope(capsys):
    violations = []
    worst_ratio = 0.0
    for D, n_max in ((5, 800), (13, 200), (17, 200)):
        series = eta_series(D, n_max)
        for N in range(1, n_max + 1):
            val = abs(float(embed_real(series.coeffs[N])))
            env = analytic.bound_envelope(D, N)
            worst_ratio = max(worst_ratio, val / env)
            if val > env:
                violations.append((D, N, val, env))
    ok = not violations
    with capsys.disabled():
        if violations:
            # report, per the criterion, before failing the assertion
            for D, N, val, env in violations[:10]:
                print(f"  envelope exceeded: D={D} N={N} |a|={val:.3e} > {env:.3e}")
        report(
            8,
            ok,
            f"|a_D(N)| <= envelope for D=5 (N<=800), D=13,17 (N<=200); "
            f"worst |a|/envelope = {worst_ratio:.2e}",
        )
    assert ok


def test_criterion_09_partition_identities(capsys):
    N = 500
    prod = [0] * (N + 1)
    prod[0] = 1
    for n in range(1, N + 1):
        for k in range(N, n - 1, -1):
            prod[k] -= prod[k - n]
    euler_ok = prod == pentagonal_int_series(N)

    p = p_table(300)
    c = length_distribution(5, 300)
    rows_ok = all(sum(c[k]) == p[k] for k in range(301))

    pnr_ok = True
    for D in (5, 13):
        ct = build_char_table(D)
        pnr = p_nr_table(ct, 40)
        allowed = tuple(n for n in range(1, 41) if ct[n % D] == -1)
        for k in range(41):
            if pnr[k] != count_partitions_with_parts(k, allowed):
                pnr_ok = False
    ok = euler_ok and rows_ok and pnr_ok
    with capsys.disabled():
        report(
            9,
            ok,
            "pentagonal identity to N=500 exact; length-distribution row sums = "
            "p(k) to k=300; p_nr matches brute force to k=40 for D=5,13",
        )
    assert ok


def test_criterion_10_conjecture_reports(capsys):
    t0 = time.monotonic()
    r1 = subprocess.run(
        [sys.executable, "-m", "hecke_eta.cli", "signs", "--D", "5", "--N", "800"],
        capture_output=True,
        text=True,
    )
    t_signs = time.monotonic() - t0
    t0 = time.monotonic()
    r2 = subprocess.run(
        [
            sys.executable, "-m", "hecke_eta.cli", "growth", "--D", "5",
            "--N", "800", "--format", "json", "--window-min", "100",
        ],
        capture_output=True,
        text=True,
    )
    t_growth = time.monotonic() - t0

    ok = r1.returncode == 0 and r2.returncode == 0
    ok = ok and t_signs < 120.0 and t_growth < 120.0
    signs = json.loads(r1.stdout)
    growth = json.loads(r2.stdout)
    ok = ok and len(signs["signs"]) == 800
    slope = growth["slope"]
    ok = ok and math.isfinite(slope) and slope > 0
    # qualitative sqrt(N) shape: the linear fit in sqrt(N) explains the data
    xs = [xy[0] for xy in growth["pairs"] if xy[0] ** 2 >= 100]
    ys = [xy[1] for xy in growth["pairs"] if xy[0] ** 2 >= 100]
    ybar = sum(ys) / len(ys)
    ss_res = sum((y - (slope * x + growth["intercept"])) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - ybar) ** 2 for y in ys)
    r_squared = 1 - ss_res / ss_tot
    ok = ok and r_squared > 0.95
    with capsys.disabled():
        report(
            10,
            ok,
            f"signs ({t_signs:.1f}s) and growth ({t_growth:.1f}s) complete at "
            f"N=800 (< 120 s each); {signs['count']} sign changes observed; "
            f"log|a_5(N)| ~ {slope:.3f} sqrt(N), R^2 = {r_squared:.4f} "
            "(reports only; the statements themselves remain conjectures)",
        )
    assert ok
