"""Command-line surface: coefficient dumps, golden verification, reports.

Subcommands: coeffs, delta5, verify-table, verify-modularity, oracle-check,
partitions, lvalues, periods, chars, signs, growth, grid.  Exit codes:
0 success, 1 verification failure, 2 usage error.  Output is deterministic
for fixed flags: stable ordering, floats printed with 17 significant
digits, and the exact numerator pair always accompanies any real column.

Every --D command needs the discriminant check, so characters and quad_ring
are imported here; each command imports the layers it runs, and json, when
it runs, so that a call loads only what it uses.
"""

from __future__ import annotations

import argparse
import math
import sys

from .characters import build_char_table, euler_phi, is_fundamental
from .quad_ring import canonical_str, embed_midpoint, embed_real

# Precision of L'(0) in `lvalues`; the printed float carries 17 digits.
L_PRIME_DIGITS = 50

# Commands whose --N is checked against 1 <= N <= MAX_ORDER and, where they
# take --D, against the series cost model _series_s.
ORDER_CAPPED = ("coeffs", "delta5", "signs", "growth")

# oracle-check, partitions, verify-modularity, grid, coeffs, signs and growth
# refuse, with exit 2, any input whose predicted run time exceeds
# TIME_BUDGET_S.  The models were fitted to end-to-end runs on a 2-vCPU
# x86-64 machine with Python 3.11 (oracle-check: the 45 runs, D 5..100049,
# N 1..5000, that took at least 1 s, up to 157 s and 93 MB; partitions: the
# 35 of 53 runs, D 5..900001, N 0..20000, that took at least 1 s, up to 51
# s, and 20 runs at D 30005..999997, N 0..300, up to 4.3 s; the numeric
# model: 27 runs, D 5..2000001, nmax 1..100000, up to 36 s; the series
# model: 23 runs of coeffs, D 5..3999997, N 1..17000, up to 67 s, where
# signs and growth cost the same) and scaled so that none of those runs took
# longer than predicted, with a 1.2x margin in oracle-check and partitions,
# whose repeated runs vary by that much; they over-predict by up to 2.9x,
# 2.4x (where the table, not the character table, dominates), 9x (where the
# points spread in height) and 1.9x.
TIME_BUDGET_S = 60

# Seconds per unit of D of the character table and the other O(D) work of
# coeffs, signs, growth and partitions, charged by _series_s and
# _partitions_s: `coeffs --D 3999997 --N 1` took 16 s (predicted 18.8 s) and
# `partitions --D 999997 --N 0` 3.2 s (4.7 s).
CHAR_TABLE_S_PER_D = 4.7e-6

# partitions also refuses input whose predicted peak RSS (_partitions_mb)
# exceeds this, since its time model admits tables of several GB.
MEMORY_BUDGET_MB = 500

# Largest --D of each command, checked before the discriminant's trial
# division, measured end to end on the same machine with the least work the
# command accepts.  periods, three transforms of length phi(D)/2 on
# coefficients whose width varies with D, is slowest at prime D: 6.3 s at
# D = 10009, 4-11 s at six random primes in 12000..20000, 13 s and 33 MB at
# 20021, 14 s at 22697, 31 s at 25033, 37 s at 33013 and 145 s at 40009,
# where the coefficients are twice as wide as at 33013; the cap keeps a 4x
# margin for that spread.  lvalues, one 50-digit log-Gamma per residue, took
# 20 s at D = 400001 and 53 s at 1000001.  chars, linear in D, took 3.9 s at
# D = 1000001 and 18 s at 4000001, where it held 354 MB; coeffs, signs and
# growth at N = 1 took 16 s and 202 MB there, and grid at one point 33 s and
# 354 MB.  Memory grows with D too, so these caps are the largest D measured.
# verify-modularity at one sample took 31 s at D = 2000001.  partitions took
# 3.2 s and 76 MB at D = 999997, N = 0, and 4.3 s and 230 MB at N = 20; its
# cost model accepts the cap, which is the binding limit.  Above the cap of
# oracle-check its cost model refuses every input anyway: it accepts no D
# above 88577 (101 * 877, 43 s and 86 MB at N = 1; the largest prime it
# accepts, 88513, took 43 s there).
D_CAP = {
    "coeffs": 4_000_000,
    "signs": 4_000_000,
    "growth": 4_000_000,
    "chars": 4_000_000,
    "grid": 4_000_000,
    "verify-modularity": 2_000_000,
    "lvalues": 1_000_000,
    "partitions": 1_000_000,
    "periods": 20_000,
    "oracle-check": 88_577,
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _json_float(x: float) -> float | None:
    """x, or None (JSON null) for an infinite or undefined x, which JSON
    cannot spell."""
    return x if math.isfinite(x) else None


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _print_rows(D: int, coeffs, fmt: str) -> None:
    """One record per coefficient a(1), a(2), ...: exact pair and real value."""
    if fmt == "csv":
        print("D,N,num_a,num_b,real")
    else:
        import json
    for n, c in enumerate(coeffs, start=1):
        real = embed_real(c)
        if fmt == "csv":
            print(f"{D},{n},{c.num_a},{c.num_b},{_fmt(real)}")
        else:
            print(json.dumps({"D": D, "N": n, **c.to_json_dict(), "real": _json_float(real)}))


def cmd_coeffs(args) -> int:
    from .qseries import eta_series

    _print_rows(args.D, eta_series(args.D, args.N).coeffs[1:], args.format)
    return 0


def cmd_delta5(args) -> int:
    from .qseries import tau5_values

    _print_rows(5, tau5_values(args.N).values(), args.format)
    return 0


def cmd_verify_table(args) -> int:
    from .golden import golden_coefficients, golden_tau5
    from .qseries import eta_series, tau5_values

    entries = golden_coefficients()
    n_max = {D: max(n for d2, n, _ in entries if d2 == D) for D in {5, 13, 17}}
    series = {D: eta_series(D, n_max[D]) for D in sorted(n_max)}
    tau_entries = golden_tau5()
    taus = tau5_values(max(n for n, _ in tau_entries))
    checks = [(f"a_{D}({N})", series[D].coeffs[N], expected) for D, N, expected in entries]
    checks += [(f"tau_5({N})", taus[N], expected) for N, expected in tau_entries]
    failures = 0
    for label, actual, expected in checks:
        ok = actual == expected
        line = f"{'PASS' if ok else 'FAIL'} {label} = {canonical_str(actual)}"
        if not ok:
            failures += 1
            line += f" expected {canonical_str(expected)}"
        print(line)
    print(f"{len(checks) - failures}/{len(checks)} entries verified")
    return 0 if failures == 0 else 1


def _product_s(D: int, nmax: int, height: float) -> float:
    """Predicted seconds of one truncated product at Im z = height: up to
    nmax untwisted logs, then the split that analytic._split chooses from
    |q| = exp(-2 pi height / sqrt(D)), n0 direct twisted factors of phi(D)
    logs each and M series terms.  Both parts fall as the height grows, and
    the loop stops where |q|^n underflows 1e-320.  Per unit: 0.9 us an
    untwisted log, 0.4 us a twisted one, six more of those per direct
    factor (the loop over the roots) and _TERM_COST of them per series
    term."""
    from . import analytic

    nmax = max(nmax, 0)
    phi = euler_phi(D)
    L = 2 * math.pi * height / math.sqrt(D)
    n0, M = analytic._split(L, nmax, phi, math.sqrt(D))
    if L > 0:
        nmax = min(nmax, math.ceil(-math.log(1e-320) / L))
    return 1e-5 + 9e-7 * nmax + 4e-7 * (min(n0, nmax) * (phi + 6) + analytic._TERM_COST * M)


def _numeric_s(D: int, evaluations: int, nmax: int, height: float | None = None) -> float:
    """Predicted seconds of `evaluations` truncated products at D, each
    charged as at `height`, the lowest Im of the points evaluated, plus the
    per-D data (character table, roots of unity), built once.

    height=None stands for verify-modularity: each sample z, with Im z in
    [0.5, 1.5] and |Re z| <= sqrt(D)/2, is evaluated at z (twice) and
    z + sqrt(D), at height 0.5 or more, and at -1/z, whose height is at
    least 0.5 / (D/4 + 2.25).  An upper bound on 27 end-to-end runs
    (verify-modularity and grid, D 5..2000001, nmax 1..100000, 0.1 s to
    36 s), which it over-predicts by 1.4x to 9x, most where the points
    spread in height, as samples and grids do: verify-modularity --D 101
    took 1.3 s at 950 samples (predicted 3.5 s) and 32 s at 16000 (58 s);
    grid --D 5 --re-min 3 --re-max 3 --im-min 0.0005 --im-max 0.001 with
    20 x 15 points at --nmax 100000 took 35 s (57 s).
    """
    if height is None:
        low = 0.5 / (D / 4 + 2.25)
        product_s = (_product_s(D, nmax, low) + 3 * _product_s(D, nmax, 0.5)) / 4
    else:
        product_s = _product_s(D, nmax, height)
    return 6e-6 * D + evaluations * product_s


def _residual(check, D: int, z: complex, nmax: int) -> float:
    """A law-check residual; inf where the truncated product overflows the
    float range, which then reads as a failed point."""
    try:
        return check(D, z, nmax)
    except OverflowError:
        return math.inf


def cmd_verify_modularity(args) -> int:
    from . import analytic

    if args.samples < 1 or args.nmax < 1:
        return _usage_error("--samples and --nmax must be >= 1")
    if not 0 < args.tol < math.inf:
        return _usage_error("--tol must be a positive finite number")
    if _numeric_s(args.D, 4 * args.samples, args.nmax) > TIME_BUDGET_S:
        return _usage_error("--samples and --nmax exceed the time budget")
    points = analytic.sample_half_plane_points(args.D, args.samples, seed=args.seed)
    worst = 0.0
    failures = 0
    for z in points:
        r_inv = _residual(analytic.check_inversion, args.D, z, args.nmax)
        r_tra = _residual(analytic.check_translation, args.D, z, args.nmax)
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


def _series_s(D: int, N: int) -> float:
    """Predicted seconds of coeffs, signs or growth: the O(D) character
    table, then the kernel on coefficients whose width grows with N and,
    up to D of about 10^5, with D."""
    return CHAR_TABLE_S_PER_D * D + 1.45e-9 * N**2.4 * min(D, 100_000) ** 0.3


def _oracle_check_s(D: int, N: int) -> float:
    """Predicted seconds: about 2 log2(phi(D)/2) Kronecker products of (N +
    1)(2D - 1) slots, on coefficients that grow with N, faster the more
    residues the norm multiplies, hence the exponent of N + 1 that grows
    with log D.  In s measured/predicted by (D, N): (5, 5000) 34/60, (13,
    2000) 63/84, (41, 800) 121/151, (101, 400) 125/221, (293, 20) 0.86/1.8,
    (293, 80) 24/46, (1009, 40) 72/93, (4845, 10) 39/54, (10001, 10)
    157/194, (30005, 3) 44/76, (88577, 1) 43/60, (100049, 1) 39/73."""
    return 2.1e-7 * D**1.53 * (N + 1) ** (1.84 + 0.097 * math.log(D))


def _partitions_s(D: int, N: int) -> float:
    """Predicted seconds: the O(N^2) additions of the length distribution,
    the (N + 1) x D table of counts about sqrt(N) digits wide, and the
    character table at CHAR_TABLE_S_PER_D.  At D = 5 the first refused
    order is 18481; N = 20000 took 51 s end to end."""
    return 1.75e-7 * (N + 1) ** 2 + 1.8e-8 * D * (N + 1) ** 1.5 + CHAR_TABLE_S_PER_D * D


def _partitions_mb(D: int, N: int) -> float:
    """Predicted peak RSS in MB: the interpreter, the character table and
    the (N + 1) x D counts, ints up to about 3.7 sqrt(N) bits wide held in
    row tuples while the rows are written one at a time, 20 + 0.6 sqrt(N)
    bytes per count; a count c[k][r] with k < r is always zero, a shared
    small int that costs only its 8-byte tuple slot.  An upper bound on 16
    end-to-end runs, D 5..900001, N 0..16000, over-predicting by 1.04x to
    1.64x; in MB measured/predicted by (D, N): (1001, 3000) 159/166, (1001,
    4000) 229/237, (1001, 5000) 299/315, (1001, 6000) 369/400, (101, 6000)
    57/70, (101, 12000) 114/134, (101, 16000) 158/185, (301, 10000) 235/268,
    (5, 16000) 35/38, (5001, 2000) 179/188, (2001, 500) 27/41, (10001, 100)
    24/39, (10001, 1000) 113/126, (100001, 10) 32/45, (100001, 100) 100/117,
    (900001, 0) 70/91."""
    m = min(N + 1, D)
    zeros = m * (D - 1) - m * (m - 1) // 2  # c[k][r] for k < r < D
    per_count = 20 + 0.6 * math.sqrt(N + 1)
    return 30 + 6e-5 * D + ((D * (N + 1) - zeros) * per_count + 8 * zeros) / 1e6


def cmd_oracle_check(args) -> int:
    if args.N < 1 or _oracle_check_s(args.D, args.N) > TIME_BUDGET_S:
        return _usage_error("--N out of range for the convolution oracle")
    from .oracle import compare_with_eta

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
    if (
        args.N < 0
        or _partitions_s(args.D, args.N) > TIME_BUDGET_S
        or _partitions_mb(args.D, args.N) > MEMORY_BUDGET_MB
    ):
        return _usage_error("--N out of range for the partition tables")
    import json

    from .partitions import build_partition_tables

    ct = build_char_table(args.D)
    tables = build_partition_tables(ct, args.N)
    head = json.dumps({"D": tables.D, "N_max": tables.N_max, "p": tables.p, "p_nr": tables.p_nr})
    # one row of c at a time, so the table is never held as one text
    write = sys.stdout.write
    write(head[:-1] + ', "c": [')
    for k, row in enumerate(tables.c):
        write(", " + json.dumps(row) if k else json.dumps(row))
    write("]}\n")
    return 0


def cmd_lvalues(args) -> int:
    import json

    from .lseries import l_minus_one, l_prime_zero

    ct = build_char_table(args.D)
    rec = l_minus_one(ct)
    m = rec.m_exponent
    lp = l_prime_zero(ct, L_PRIME_DIGITS)
    out = {
        "S_chi": rec.S_chi,
        "L_minus_1": str(rec.l_minus_one),
        "m": int(m) if m.denominator == 1 else str(m),
        "L_prime_0": float(lp),
    }
    print(json.dumps(out))
    return 0


def cmd_periods(args) -> int:
    import json

    from .cyclotomic import period_polynomials

    pair = period_polynomials(build_char_table(args.D))
    out = {
        "D": args.D,
        "f_plus": [canonical_str(c) for c in pair.f_plus],
        "f_minus": [canonical_str(c) for c in pair.f_minus],
    }
    print(json.dumps(out))
    return 0


def cmd_chars(args) -> int:
    import json

    ct = build_char_table(args.D)
    out = {
        "D": args.D,
        "values": list(ct.values),
        "qr": list(ct.qr_list),
        "nr": list(ct.nr_list),
    }
    print(json.dumps(out))
    return 0


def cmd_signs(args) -> int:
    import json

    from .qseries import eta_series

    signs = []
    changes = []
    prev = 0
    for n, c in enumerate(eta_series(args.D, args.N).coeffs[1:], start=1):
        s = 0 if c.is_zero() else (1 if embed_real(c) > 0 else -1)
        signs.append(s)
        if s != 0:
            if prev != 0 and s != prev:
                changes.append(n)
            prev = s
    print(
        json.dumps(
            {
                "D": args.D,
                "N_max": args.N,
                "signs": signs,
                "sign_changes": changes,
                "count": len(changes),
            }
        )
    )
    return 0


def cmd_growth(args) -> int:
    lo = args.window_min if args.window_min is not None else 1
    hi = args.window_max if args.window_max is not None else args.N
    if not 1 <= lo <= hi <= args.N:
        return _usage_error("fit window must satisfy 1 <= min <= max <= N")
    from .qseries import eta_series

    pairs = []
    excluded = []
    xs = []
    ys = []
    for n, c in enumerate(eta_series(args.D, args.N).coeffs[1:], start=1):
        if c.is_zero():
            excluded.append(n)
            continue
        x = math.sqrt(n)
        v = abs(embed_real(c))
        if v < math.inf:
            y = math.log(v)
        else:  # past the float range: the log of the exact midpoint n / 2^k
            import mpmath
            num, k = embed_midpoint(c)
            with mpmath.workdps(30):
                y = float(mpmath.log(mpmath.ldexp(abs(num), -k)))
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
    if args.format == "csv":
        print(
            f"# D={args.D} N_max={args.N} window={lo}..{hi} "
            f"slope={_fmt(slope)} intercept={_fmt(intercept)} "
            f"fitted_C={_fmt(slope)}"
        )
        if excluded:
            print(f"# excluded zero coefficients at N = {excluded}")
        print("sqrt_N,log_abs_a")
        for x, y in pairs:
            print(f"{_fmt(x)},{_fmt(y)}")
    else:
        import json

        print(
            json.dumps(
                {
                    "D": args.D,
                    "N_max": args.N,
                    "window": [lo, hi],
                    "slope": _json_float(slope),
                    "intercept": _json_float(intercept),
                    "fitted_C": _json_float(slope),
                    "excluded_zero": excluded,
                    "pairs": [[x, y] for x, y in pairs],
                }
            )
        )
    return 0


def cmd_grid(args) -> int:
    bounds = (args.re_min, args.re_max, args.im_min, args.im_max)
    if not all(map(math.isfinite, bounds)) or min(args.im_min, args.im_max) <= 0:
        return _usage_error("grid bounds must be finite, --im-min and --im-max positive")
    if args.re_steps < 1 or args.im_steps < 1 or args.nmax < 1:
        return _usage_error("step counts and --nmax must be >= 1")
    # The lowest point of the grid: Im z >= lo, and Im(-1/z) >= lo / (X^2 + hi^2).
    lo, hi = sorted((args.im_min, args.im_max))
    height = lo / max(1.0, max(args.re_min**2, args.re_max**2) + hi**2)
    if _numeric_s(args.D, 2 * args.re_steps * args.im_steps, args.nmax, height) > TIME_BUDGET_S:
        return _usage_error("grid size and --nmax exceed the time budget")
    from . import analytic

    print("re,im,re_eta,im_eta,re_eta_inv,im_eta_inv")
    overflows = 0
    for i in range(args.im_steps):
        im = args.im_min + (args.im_max - args.im_min) * i / max(1, args.im_steps - 1)
        for j in range(args.re_steps):
            re = args.re_min + (args.re_max - args.re_min) * j / max(1, args.re_steps - 1)
            z = complex(re, im)
            cols = [_fmt(re), _fmt(im)]
            for w in (z, -1 / z):
                try:
                    eta = analytic.eval_eta_numeric(args.D, w, args.nmax)
                    cols += [_fmt(eta.real), _fmt(eta.imag)]
                except OverflowError:  # past the float range: both columns read inf
                    overflows += 1
                    cols += ["inf", "inf"]
            print(",".join(cols))
    return 0 if overflows == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_signs)

    p = sub.add_parser("growth", help="(sqrt N, log|a_D(N)|) data and fit")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--window-min", type=int, default=None)
    p.add_argument("--window-max", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
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
    args = _build_parser().parse_args(argv)
    D = getattr(args, "D", None)
    if D is not None:
        cap = D_CAP[args.command]
        if D > cap:
            return _usage_error(f"--D exceeds the limit {cap} of {args.command}")
        if not is_fundamental(D):
            return _usage_error(
                f"D={D} is not fundamental (need D = 1 mod 4, squarefree, >= 5)"
            )
    if args.command in ORDER_CAPPED:
        from .qseries import MAX_ORDER

        if args.N < 1:
            return _usage_error("--N must be >= 1")
        if args.N > MAX_ORDER:
            return _usage_error(f"--N exceeds capacity limit {MAX_ORDER}")
        if D is not None and _series_s(D, args.N) > TIME_BUDGET_S:
            return _usage_error("--D and --N exceed the time budget")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
