"""Command-line surface: coefficient dumps, golden verification, reports.

Subcommands: coeffs, delta5, verify-table, verify-modularity, oracle-check,
partitions, lvalues, periods, chars, signs, growth, grid.  Exit codes:
0 success, 1 verification failure, 2 usage error.  Output is deterministic
for fixed flags: stable ordering, floats printed with 17 significant
digits, and the exact numerator pair always accompanies any real column.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import mpmath

from . import analytic
from .characters import build_char_table, is_fundamental
from .cyclotomic import period_polynomials
from .golden import golden_coefficients, golden_tau5
from .lseries import l_minus_one, l_prime_zero
from .oracle import compare_with_eta
from .partitions import build_partition_tables
from .qseries import MAX_ORDER, eta_series, tau5_values
from .quad_ring import canonical_str, embed_real

ENV_DIGITS = "HECKE_ETA_DIGITS"


def _default_digits() -> int:
    try:
        return max(15, int(os.environ.get(ENV_DIGITS, "50")))
    except ValueError:
        return 50


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _check_D(D: int) -> bool:
    return is_fundamental(D)


@dataclass
class SignReport:
    D: int
    N_max: int
    signs: list[int]
    sign_changes: list[int]
    count: int


@dataclass
class GrowthReport:
    D: int
    N_max: int
    pairs: list[tuple[float, float]]
    slope: float
    intercept: float
    fitted_C: float
    window: tuple[int, int]
    excluded_zero: list[int]


def _embedded_values(D: int, N: int, digits: int):
    series = eta_series(D, N)
    return series, [embed_real(c, digits=digits) for c in series.coeffs]


def cmd_coeffs(args) -> int:
    if not _check_D(args.D):
        return _usage_error(
            f"D={args.D} is not fundamental (need D = 1 mod 4, squarefree, >= 5)"
        )
    if args.N < 1:
        return _usage_error("--N must be >= 1")
    if args.N > MAX_ORDER:
        return _usage_error(f"--N exceeds capacity limit {MAX_ORDER}")
    digits = args.digits
    series, reals = _embedded_values(args.D, args.N, digits)
    if args.format == "csv":
        print("D,N,num_a,num_b,real")
        for n in range(1, args.N + 1):
            c = series.coeffs[n]
            print(f"{args.D},{n},{c.num_a},{c.num_b},{_fmt(reals[n])}")
    else:
        for n in range(1, args.N + 1):
            c = series.coeffs[n]
            rec = {
                "D": args.D,
                "N": n,
                "a": c.num_a,
                "b": c.num_b,
                "den": 2,
                "real": float(reals[n]),
            }
            print(json.dumps(rec))
    return 0


def cmd_delta5(args) -> int:
    if args.N < 1:
        return _usage_error("--N must be >= 1")
    if args.N > MAX_ORDER:
        return _usage_error(f"--N exceeds capacity limit {MAX_ORDER}")
    taus = tau5_values(args.N)
    if args.format == "csv":
        print("D,N,num_a,num_b,real")
        for n in range(1, args.N + 1):
            c = taus[n]
            print(f"5,{n},{c.num_a},{c.num_b},{_fmt(embed_real(c))}")
    else:
        for n in range(1, args.N + 1):
            c = taus[n]
            rec = {
                "D": 5,
                "N": n,
                "a": c.num_a,
                "b": c.num_b,
                "den": 2,
                "real": float(embed_real(c)),
            }
            print(json.dumps(rec))
    return 0


def cmd_verify_table(args) -> int:
    entries = golden_coefficients()
    n_max = {D: max(n for d2, n, _ in entries if d2 == D) for D in {5, 13, 17}}
    series = {D: eta_series(D, n_max[D]) for D in sorted(n_max)}
    failures = 0
    for D, N, expected in entries:
        actual = series[D].coeffs[N]
        ok = actual == expected
        if not ok:
            failures += 1
        status = "PASS" if ok else "FAIL"
        line = f"{status} a_{D}({N}) = {canonical_str(actual)}"
        if not ok:
            line += f" expected {canonical_str(expected)}"
        print(line)
    tau_entries = golden_tau5()
    taus = tau5_values(max(n for n, _ in tau_entries))
    for N, expected in tau_entries:
        actual = taus[N]
        ok = actual == expected
        if not ok:
            failures += 1
        status = "PASS" if ok else "FAIL"
        line = f"{status} tau_5({N}) = {canonical_str(actual)}"
        if not ok:
            line += f" expected {canonical_str(expected)}"
        print(line)
    total = len(entries) + len(tau_entries)
    print(f"{total - failures}/{total} entries verified")
    return 0 if failures == 0 else 1


def cmd_verify_modularity(args) -> int:
    if not _check_D(args.D):
        return _usage_error(f"D={args.D} is not fundamental")
    points = analytic.sample_half_plane_points(args.D, args.samples, seed=args.seed)
    worst = 0.0
    failures = 0
    for z in points:
        r_inv = analytic.check_inversion(args.D, z, args.nmax)
        r_tra = analytic.check_translation(args.D, z, args.nmax)
        worst = max(worst, r_inv, r_tra)
        ok = r_inv < args.tol and r_tra < args.tol
        if not ok:
            failures += 1
        print(
            f"{'PASS' if ok else 'FAIL'} z={_fmt(z.real)}+{_fmt(z.imag)}i "
            f"inversion={r_inv:.3e} translation={r_tra:.3e}"
        )
    print(f"worst residual {worst:.3e} over {len(points)} points (tol {args.tol:g})")
    return 0 if failures == 0 else 1


def cmd_oracle_check(args) -> int:
    if not _check_D(args.D):
        return _usage_error(f"D={args.D} is not fundamental")
    if args.N < 0 or args.N > 10_000:
        return _usage_error("--N out of range for the convolution oracle")
    matches, mismatches = compare_with_eta(args.D, args.N)
    total = args.N + 1
    if mismatches:
        first = mismatches[0]
        print(f"FAIL {matches}/{total} coefficients match")
        print(
            f"first divergence at N={first[0]}: direct {canonical_str(first[1])} "
            f"vs oracle {canonical_str(first[2])}"
        )
        return 1
    print(f"PASS {matches}/{total} coefficients match")
    return 0


def cmd_partitions(args) -> int:
    if not _check_D(args.D):
        return _usage_error(f"D={args.D} is not fundamental")
    if args.N < 0 or args.N * args.D > 50_000_000:
        return _usage_error("--N out of range (memory guard)")
    ct = build_char_table(args.D)
    tables = build_partition_tables(ct, args.N)
    print(
        json.dumps(
            {
                "D": tables.D,
                "N_max": tables.N_max,
                "p": list(tables.p),
                "p_nr": list(tables.p_nr),
                "c": [list(row) for row in tables.c],
            }
        )
    )
    return 0


def cmd_lvalues(args) -> int:
    if not _check_D(args.D):
        return _usage_error(f"D={args.D} is not fundamental")
    ct = build_char_table(args.D)
    rec = l_minus_one(ct)
    m = rec.m_exponent
    lp = l_prime_zero(ct, args.digits)
    out = {
        "S_chi": rec.S_chi,
        "L_minus_1": str(rec.l_minus_one),
        "m": int(m) if m.denominator == 1 else str(m),
        "L_prime_0": float(lp),
    }
    print(json.dumps(out))
    return 0


def cmd_periods(args) -> int:
    if not _check_D(args.D):
        return _usage_error(f"D={args.D} is not fundamental")
    pair = period_polynomials(build_char_table(args.D))
    out = {
        "D": args.D,
        "f_plus": [canonical_str(c) for c in pair.f_plus],
        "f_minus": [canonical_str(c) for c in pair.f_minus],
    }
    print(json.dumps(out))
    return 0


def cmd_chars(args) -> int:
    if not _check_D(args.D):
        return _usage_error(f"D={args.D} is not fundamental")
    ct = build_char_table(args.D)
    out = {
        "D": args.D,
        "values": list(ct.values),
        "qr": list(ct.qr_list),
        "nr": list(ct.nr_list),
    }
    print(json.dumps(out))
    return 0


def _signs_data(D: int, N: int, digits: int) -> SignReport:
    series, reals = _embedded_values(D, N, digits)
    signs = []
    changes = []
    prev = 0
    for n in range(1, N + 1):
        if series.coeffs[n].is_zero():
            s = 0
        else:
            s = 1 if reals[n] > 0 else -1
        signs.append(s)
        if s != 0:
            if prev != 0 and s != prev:
                changes.append(n)
            prev = s
    return SignReport(D=D, N_max=N, signs=signs, sign_changes=changes, count=len(changes))


def cmd_signs(args) -> int:
    if not _check_D(args.D):
        return _usage_error(f"D={args.D} is not fundamental")
    if args.N < 1 or args.N > MAX_ORDER:
        return _usage_error("--N out of range")
    rep = _signs_data(args.D, args.N, args.digits)
    print(
        json.dumps(
            {
                "D": rep.D,
                "N_max": rep.N_max,
                "signs": rep.signs,
                "sign_changes": rep.sign_changes,
                "count": rep.count,
            }
        )
    )
    return 0


def _growth_data(D: int, N: int, window, digits: int) -> GrowthReport:
    series, reals = _embedded_values(D, N, digits)
    lo, hi = window
    pairs = []
    excluded = []
    xs = []
    ys = []
    for n in range(1, N + 1):
        if series.coeffs[n].is_zero():
            excluded.append(n)
            continue
        x = math.sqrt(n)
        y = float(mpmath.log(abs(reals[n])))
        pairs.append((x, y))
        if lo <= n <= hi:
            xs.append(x)
            ys.append(y)
    k = len(xs)
    if k >= 2:
        sx = sum(xs)
        sy = sum(ys)
        sxx = sum(x * x for x in xs)
        sxy = sum(x * y for x, y in zip(xs, ys))
        denom = k * sxx - sx * sx
        slope = (k * sxy - sx * sy) / denom
        intercept = (sy - slope * sx) / k
    else:
        slope = float("nan")
        intercept = float("nan")
    return GrowthReport(
        D=D,
        N_max=N,
        pairs=pairs,
        slope=slope,
        intercept=intercept,
        fitted_C=slope,
        window=(lo, hi),
        excluded_zero=excluded,
    )


def cmd_growth(args) -> int:
    if not _check_D(args.D):
        return _usage_error(f"D={args.D} is not fundamental")
    if args.N < 1 or args.N > MAX_ORDER:
        return _usage_error("--N out of range")
    lo = args.window_min if args.window_min is not None else 1
    hi = args.window_max if args.window_max is not None else args.N
    if not 1 <= lo <= hi <= args.N:
        return _usage_error("fit window must satisfy 1 <= min <= max <= N")
    rep = _growth_data(args.D, args.N, (lo, hi), args.digits)
    if args.format == "csv":
        print(
            f"# D={rep.D} N_max={rep.N_max} window={rep.window[0]}..{rep.window[1]} "
            f"slope={_fmt(rep.slope)} intercept={_fmt(rep.intercept)} "
            f"fitted_C={_fmt(rep.fitted_C)}"
        )
        if rep.excluded_zero:
            print(f"# excluded zero coefficients at N = {rep.excluded_zero}")
        print("sqrt_N,log_abs_a")
        for x, y in rep.pairs:
            print(f"{_fmt(x)},{_fmt(y)}")
    else:
        print(
            json.dumps(
                {
                    "D": rep.D,
                    "N_max": rep.N_max,
                    "window": list(rep.window),
                    "slope": rep.slope,
                    "intercept": rep.intercept,
                    "fitted_C": rep.fitted_C,
                    "excluded_zero": rep.excluded_zero,
                    "pairs": [[x, y] for x, y in rep.pairs],
                }
            )
        )
    return 0


def cmd_grid(args) -> int:
    if not _check_D(args.D):
        return _usage_error(f"D={args.D} is not fundamental")
    if args.im_min <= 0:
        return _usage_error("--im-min must be positive")
    if args.re_steps < 1 or args.im_steps < 1:
        return _usage_error("step counts must be >= 1")
    print("re,im,re_eta,im_eta,re_eta_inv,im_eta_inv")
    for i in range(args.im_steps):
        im = args.im_min + (args.im_max - args.im_min) * i / max(1, args.im_steps - 1)
        for j in range(args.re_steps):
            re = args.re_min + (args.re_max - args.re_min) * j / max(1, args.re_steps - 1)
            z = complex(re, im)
            w = analytic.eval_eta_numeric(args.D, z, args.nmax)
            w_inv = analytic.eval_eta_numeric(args.D, -1 / z, args.nmax)
            print(
                f"{_fmt(re)},{_fmt(im)},{_fmt(w.real)},{_fmt(w.imag)},"
                f"{_fmt(w_inv.real)},{_fmt(w_inv.imag)}"
            )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    digits = _default_digits()
    parser = argparse.ArgumentParser(
        prog="hecke-eta",
        description="Eta analogues for Hecke groups H(sqrt(D)): exact "
        "coefficients, partition cross-checks, and transformation-law "
        "verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="exact coefficients a_D(1..N)")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--digits", type=int, default=digits)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("delta5", help="tau_5(1..N) of the fifth-power series")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_delta5)

    p = sub.add_parser("verify-table", help="recompute all golden coefficients")
    p.set_defaults(func=cmd_verify_table)

    p = sub.add_parser("verify-modularity", help="inversion/translation residuals")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--nmax", type=int, default=300)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=20240901)
    p.set_defaults(func=cmd_verify_modularity)

    p = sub.add_parser("oracle-check", help="convolution oracle vs the exact kernel")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("partitions", help="p, p_nr and length-distribution tables")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("lvalues", help="S_chi, exact L(-1), m, numeric L'(0)")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--digits", type=int, default=digits)
    p.set_defaults(func=cmd_lvalues)

    p = sub.add_parser("periods", help="period polynomial coefficients")
    p.add_argument("--D", type=int, required=True)
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("chars", help="character value row and residue lists")
    p.add_argument("--D", type=int, required=True)
    p.set_defaults(func=cmd_chars)

    p = sub.add_parser("signs", help="sign pattern of the embedded coefficients")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--digits", type=int, default=digits)
    p.set_defaults(func=cmd_signs)

    p = sub.add_parser("growth", help="(sqrt N, log|a_D(N)|) data and fit")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--window-min", type=int, default=None)
    p.add_argument("--window-max", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--digits", type=int, default=digits)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("grid", help="contour grid of eta(z) and eta(-1/z)")
    p.add_argument("--D", type=int, default=5)
    p.add_argument("--re-min", type=float, default=-6.0)
    p.add_argument("--re-max", type=float, default=6.0)
    p.add_argument("--im-min", type=float, default=0.1)
    p.add_argument("--im-max", type=float, default=1.1)
    p.add_argument("--re-steps", type=int, default=60)
    p.add_argument("--im-steps", type=int, default=20)
    p.add_argument("--nmax", type=int, default=300)
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
