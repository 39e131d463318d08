"""Command-line surface: coefficient dumps, golden verification, reports.

Subcommands: coeffs, delta5, verify-table, verify-modularity, oracle-check,
partitions, lvalues, periods, chars, signs, growth, grid.  Exit codes:
0 success, 1 verification failure, 2 usage error, 141 stdout closed before
the output was written (STDOUT_CLOSED).  Output is deterministic for fixed
flags: stable ordering, floats printed with 17 significant digits, and the
exact numerator pair always accompanies any real column.

Every --D command needs the discriminant check, so characters and quad_ring
are imported here; each command imports the layers it runs, and json, when
it runs, so that a call loads only what it uses.  No command loads decimal
or fractions: lvalues prints L(-1) and m from lseries.m_exponent's integer
pair, and L'(0), like growth the log of a coefficient past the float range,
from one integer fixed-point log (lseries.log_fixed).  verify-modularity
prints analytic.law_residuals at each sample and charges its cost at the
heights of analytic.law_points, the points those residuals evaluate.  The
grammar is one table, COMMANDS, which reads a canonical command line
directly; argparse is loaded, and built from it, only for help, usage errors
and abbreviated options.  Rows are written in blocks (_write_rows), one
write call per block, not one print per row.
"""

import math
import os
import sys
from collections import Counter
from itertools import chain, compress, islice, repeat
from operator import eq
from types import SimpleNamespace

from .characters import build_char_table, euler_phi, is_fundamental
from .quad_ring import canonical_str, embed_midpoint, embed_real

# L'(0) in `lvalues` and the log of a coefficient past the float range in
# `growth` are ints in units of 2^-LOG_BITS (lseries.log_fixed), printed as
# their correctly rounded quotient by 2^LOG_BITS.  That float is the exact
# value's unless this lies within a few 2^-LOG_BITS of a rounding boundary of
# a double; 166 bits are the 50 digits of the Decimal L'(0) this replaced.
LOG_BITS = 166

# oracle-check, partitions, verify-modularity, grid, coeffs, delta5, signs
# and growth refuse, with exit 2, any input whose predicted run time exceeds
# TIME_BUDGET_S.  The models were fitted to end-to-end runs on a 2-vCPU
# x86-64 machine with Python 3.11 (oracle-check: the 45 runs, D 5..100049, N
# 1..5000, that took at least 1 s, up to 157 s and 93 MB; partitions: the 35
# of 53 runs, D 5..900001, N 0..20000, that took at least 1 s, up to 51 s,
# and 20 runs at D 30005..999997, N 0..300, up to 4.3 s; the numeric model:
# the 17 runs, D 5..1425237, nmax 1..3 * 10^7, up to 58 s, that CHANGES.md
# lists where the untwisted half became a closed-form sum; the series model:
# 23 runs of coeffs, D 5..3999997, N 1..17000, up to 67 s, where signs and
# growth cost the same) and scaled so that none of those runs took longer
# than predicted, with a 1.2x margin in oracle-check and partitions, whose
# repeated runs vary by that much; they over-predict by up to 2.9x, 2.4x
# (where the table, not the character table, dominates), 2.5x (both numeric
# commands from 1 s up, at every --nmax) and 1.9x.
TIME_BUDGET_S = 60

# Seconds per unit of D of the character table and the other O(D) work of
# coeffs, signs, growth and partitions, charged by _series_s and
# _partitions_s: in three runs each, `coeffs --N 1` took at most 0.81 s at
# D = 1000001 (predicted 1.2 s), 3.8 s at 3999949 and 2.8 s at 3999997 (4.8
# s), and `partitions --D 999997 --N 0` 0.63 s (1.2 s).
CHAR_TABLE_S_PER_D = 1.2e-6

# partitions also refuses input whose predicted peak RSS (_partitions_mb)
# exceeds this, since its time model admits tables of several GB.
MEMORY_BUDGET_MB = 500

# Largest --D of each command, checked before the discriminant's trial
# division, measured end to end on the same machine with the least work the
# command accepts; memory grows with D too, so these caps are the largest D
# measured.  periods, one transform of length phi(D)/2 on coefficients whose
# width varies with D, is slowest at prime D: 2.2-3.1 s at D = 10009, 3-7 s
# at six random primes in 13000..20000, and past the cap 6.0 s at 20021,
# 7.9 s at 22697, 18 s at 25033, 20 s at 33013 and 72 s and 70 MB at 40009,
# where the coefficients are twice as wide as at 33013; the cap keeps an 8x
# margin for that spread.  lvalues (the character table and two O(D) sums)
# and chars took 0.7-1.1 s at D = 1000001, and 3.8-5.1 s and 77 MB at
# 3999949 and 3999997; coeffs, signs and growth at N = 1 took up to 3.8 s
# and 77 MB there, grid at one point 16 s and 229 MB at 3999997, and
# verify-modularity at one sample 31 s at D = 2000001.  partitions took
# 0.90 s and 41 MB at D = 999997, N = 0, and 4.6 s and 201 MB at N = 20; its
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
    "lvalues": 4_000_000,
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


STDOUT_CLOSED = 141  # exit code when stdout closes early: 128 + SIGPIPE, as a shell reports


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


# Rows go to stdout a block at a time, one write call per block: at most
# ROW_BLOCK rows, fewer once the block holds ROW_BLOCK_CHARS characters, so
# that the text held stays small.  Where stdout is unbuffered
# (PYTHONUNBUFFERED) each write is a system call, and print makes two a line.
ROW_BLOCK = 256
ROW_BLOCK_CHARS = 1 << 16


def _write_rows(rows, sep: str = "\n", end: str = "\n") -> None:
    """Write the rows (strings) joined by sep and then end, nothing if there
    are none, a block at a time."""
    write = sys.stdout.write
    block = []
    size = 0
    lead = ""
    for row in rows:
        if len(block) == ROW_BLOCK or size >= ROW_BLOCK_CHARS:
            write(lead + sep.join(block))
            lead = sep
            block = []
            size = 0
        block.append(row)
        size += len(row)
    if block:
        write(lead + sep.join(block) + end)


def _print_rows(D: int, coeffs, fmt: str) -> None:
    """One record per coefficient a(1), a(2), ...: exact pair and real value."""
    if fmt == "csv":
        rows = (
            f"{D},{n},{c.num_a},{c.num_b},{_fmt(embed_real(c))}"
            for n, c in enumerate(coeffs, start=1)
        )
        _write_rows(chain(["D,N,num_a,num_b,real"], rows))
        return
    import json

    _write_rows(
        json.dumps({"D": D, "N": n, **c.to_json_dict(), "real": _json_float(embed_real(c))})
        for n, c in enumerate(coeffs, start=1)
    )


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
    lines = []
    for label, actual, expected in checks:
        ok = actual == expected
        line = f"{'PASS' if ok else 'FAIL'} {label} = {canonical_str(actual)}"
        if not ok:
            failures += 1
            line += f" expected {canonical_str(expected)}"
        lines.append(line)
    lines.append(f"{len(checks) - failures}/{len(checks)} entries verified")
    _write_rows(lines)
    return 0 if failures == 0 else 1


# Predicted seconds of one truncated product besides its logs (_product_s):
# the call, the splits and its share of the printed row.  `grid --D 5
# --re-steps 300 --im-steps 300 --nmax 1`, 180000 products of one log each,
# took 4.8 s end to end, and 4.9-5.5 s in five re-timed runs.  No product
# costs less, which bounds the point count of grid before its points are
# built.
PRODUCT_BASE_S = 3e-5
NUMERIC_DATA_S_PER_D = 6e-6


def _product_s(D: int, nmax: int, height: float) -> float:
    """Predicted seconds of one truncated product at Im z = height, by the
    plan of analytic._plan at L = 2 pi height / sqrt(D): nu direct untwisted
    factors and M_u untwisted-series terms of _untwisted_term_cost(D) factors
    at 0.9 us, and n0 direct twisted factors of phi(D) + 6 logs and M series
    terms of _TERM_COST logs at 0.4 us."""
    from . import analytic

    phi = euler_phi(D)
    n0, M, nu, M_u = analytic._plan(2 * math.pi * height / math.sqrt(D), nmax, D, phi)
    untwisted = nu + analytic._untwisted_term_cost(D) * M_u
    return PRODUCT_BASE_S + 9e-7 * untwisted + 4e-7 * (n0 * (phi + 6) + analytic._TERM_COST * M)


def _height_bin(h: float) -> float:
    """h rounded down to a multiple of 1/32 of its binade, the height a
    product at h is charged at: that charges no product less (_product_s
    falls as the height grows) and leaves few distinct heights to charge."""
    m, e = math.frexp(h)
    return math.ldexp(math.floor(m * 32) / 32, e)


def _numeric_s(D: int, nmax: int, heights) -> float:
    """Predicted seconds of one product at _height_bin(h) for each height h
    of a point the command evaluates, plus NUMERIC_DATA_S_PER_D a unit of D
    for the per-D data (character table, roots of unity), built once.

    An upper bound on end-to-end runs (see TIME_BUDGET_S): from 1 s up it
    over-predicts by 1.04x to 2.5x, at every --nmax alike.  The least
    margin is at D = 5, where a product is mostly its fixed cost:
    verify-modularity --D 5 --samples 238898, the most accepted at --nmax
    300, took 27-36 s against 60 s, and 43-58 s at 236175 samples on a
    loaded machine (the most accepted at D = 101 and 1001 took 29-36 and
    25-36 s).  Start-up, which no term charges, can exceed a prediction
    below a second."""
    counts = Counter(map(_height_bin, heights))
    return NUMERIC_DATA_S_PER_D * D + sum(n * _product_s(D, nmax, h) for h, n in counts.items())


def _samples_floor_s(D: int, nmax: int, samples: int) -> float:
    """A lower bound on _numeric_s of `samples` samples, each charged at the
    greatest heights one in analytic.SAMPLE_IM_RANGE = (lo, hi) can have:
    Im z <= hi and Im(-1/z) <= 1 / Im z <= 1 / lo."""
    from . import analytic

    lo, hi = analytic.SAMPLE_IM_RANGE
    one = 2 * _product_s(D, nmax, hi) + _product_s(D, nmax, 1 / lo)
    return NUMERIC_DATA_S_PER_D * D + samples * one


def _numeric_refusal(D: int, nmax: int, what: str, heights) -> str | None:
    """Why the products at the heights that heights() iterates (twice, so
    that no list is held) are refused, or None: |q| rounds to 1 at the
    exact lowest height, or _numeric_s exceeds the budget."""
    from . import analytic

    if analytic._q_rounds_to_one(D, min(heights())):
        return "points too close to the real axis: |q| rounds to 1"
    if _numeric_s(D, nmax, heights()) > TIME_BUDGET_S:
        return f"{what} exceed the time budget"
    return None


def _axis(lo: float, hi: float, steps: int) -> list[float]:
    """steps evenly spaced values from lo to hi, as grid prints them."""
    return [lo + (hi - lo) * i / max(1, steps - 1) for i in range(steps)]


def cmd_verify_modularity(args) -> int:
    from . import analytic

    if _samples_floor_s(args.D, args.nmax, args.samples) > TIME_BUDGET_S:
        return _usage_error("--samples and --nmax exceed the time budget")
    points = analytic.sample_half_plane_points(args.D, args.samples, seed=args.seed)

    def heights():
        return (w.imag for z in points for w in analytic.law_points(args.D, z))

    if refusal := _numeric_refusal(args.D, args.nmax, "--samples and --nmax", heights):
        return _usage_error(refusal)
    failures = 0

    def rows():
        nonlocal failures
        worst = 0.0
        for z in points:
            r_inv, r_tra = analytic.law_residuals(args.D, z, args.nmax)
            worst = max(worst, r_inv, r_tra)
            ok = r_inv < args.tol and r_tra < args.tol
            if not ok:
                failures += 1
            yield (
                f"{'PASS' if ok else 'FAIL'} z={_fmt(z.real)}+{_fmt(z.imag)}i "
                f"inversion={r_inv:.3e} translation={r_tra:.3e}"
            )
        yield f"worst residual {worst:.3e} over {len(points)} points (tol {args.tol:g})"

    _write_rows(rows())
    return 0 if failures == 0 else 1


# The commands that _series_s charges, by a factor for their cost over coeffs
# at the same D and N.  delta5 runs at D = 5 on eta_5^5, whose coefficients
# are wider: it took 24 s at N = 12000, 44 s at 16000, 54 s at 17000, 58 s at
# 18000 and 71 s at 20000 (48 MB at 16000), and re-timed 28.7 s at 16000,
# 3.1x coeffs --D 5, which the model over-predicts 3.1x; 2 (at most 2.07
# keeps every N <= 16000) accepts N <= 16250, 26-34 s and 41 MB there.
SERIES_WIDTH = {"coeffs": 1, "signs": 1, "growth": 1, "delta5": 2.0}


def _series_s(D: int, N: int) -> float:
    """Predicted seconds of coeffs, signs or growth: the O(D) character
    table, then the kernel on coefficients whose width grows with N and,
    up to D of about 10^5, with D."""
    return CHAR_TABLE_S_PER_D * D + 1.45e-9 * N**2.4 * min(D, 100_000) ** 0.3


def _oracle_check_s(D: int, N: int) -> float:
    """Predicted seconds: about 2 log2(phi(D)/2) model-ring products, each
    two Kronecker products of (N + 1) D slots, on coefficients that grow
    with N, faster the more residues the norm multiplies, hence the
    exponent of N + 1 that grows with log D.  It was fitted to single
    products of (N + 1)(2D - 1) zero-padded slots, so it over-predicts the
    two-point products 1.6-3.8x: end to end with the time budget (and at
    D = 100049 the D cap) lifted, in s
    measured/predicted by (D, N): (5, 5000) 31/60, (13, 2000) 40/84,
    (41, 800) 55/151, (101, 400) 59/221, (293, 20) 0.51-0.74/1.8,
    (293, 80) 10-14/46, (1009, 40) 39/93, (4845, 10) 25/54, (10001, 10)
    119/194, (30005, 3) 38/76, (88577, 1) 33/60, (100049, 1) 40/73.  The
    constant stays, as D_CAP["oracle-check"] rests on it: past the cap the
    prediction at N = 1 exceeds the budget."""
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
    if _oracle_check_s(args.D, args.N) > TIME_BUDGET_S:
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
        _partitions_s(args.D, args.N) > TIME_BUDGET_S
        or _partitions_mb(args.D, args.N) > MEMORY_BUDGET_MB
    ):
        return _usage_error("--N out of range for the partition tables")
    import json

    from .partitions import build_partition_tables

    tables = build_partition_tables(build_char_table(args.D), args.N)
    head = json.dumps({"D": tables.D, "N_max": tables.N_max, "p": tables.p, "p_nr": tables.p_nr})
    # a block of rows of c at a time, so the table is never held as one text
    sys.stdout.write(head[:-1] + ', "c": [')
    _write_rows(map(json.dumps, tables.c), ", ", "")
    sys.stdout.write("]}\n")
    return 0


def cmd_lvalues(args) -> int:
    import json

    from .lseries import l_prime_zero_fixed, m_exponent

    chi = build_char_table(args.D)
    num, den = m_exponent(chi)  # m = S/(4D), an integer but at D = 5 (1/5)
    lp = l_prime_zero_fixed(chi, LOG_BITS)
    out = {
        "S_chi": 4 * args.D * num // den,
        "L_minus_1": str(-2 * num) if den == 1 else f"{-2 * num}/{den}",
        "m": num if den == 1 else f"{num}/{den}",
        "L_prime_0": lp / (1 << LOG_BITS),
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

    D = args.D
    values = build_char_table(D)
    units = {s: compress(range(D), map(eq, values, repeat(s))) for s in (1, -1)}
    # 2^16 entries at a time, so that neither the qr/nr lists nor the text is whole
    write = sys.stdout.write
    write(f'{{"D": {D}')
    for name, ints in (("values", iter(values)), ("qr", units[1]), ("nr", units[-1])):
        write(f', "{name}": [')
        sep = ""
        while block := list(islice(ints, 1 << 16)):
            write(sep + json.dumps(block)[1:-1])
            sep = ", "
        write("]")
    write("}\n")
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
    out = {
        "D": args.D, "N_max": args.N, "signs": signs, "sign_changes": changes,
        "count": len(changes),
    }
    print(json.dumps(out))
    return 0


def cmd_growth(args) -> int:
    lo = args.window_min if args.window_min is not None else 1
    hi = args.window_max if args.window_max is not None else args.N
    if not 1 <= lo <= hi <= args.N:
        return _usage_error("fit window must satisfy 1 <= min <= max <= N")
    from .lseries import log_fixed
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
            num, k = embed_midpoint(c)
            y = log_fixed(abs(num), k, LOG_BITS) / (1 << LOG_BITS)
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
        slope = intercept = math.nan
    if args.format == "csv":
        head = [
            f"# D={args.D} N_max={args.N} window={lo}..{hi} "
            f"slope={_fmt(slope)} intercept={_fmt(intercept)} "
            f"fitted_C={_fmt(slope)}"
        ]
        if excluded:
            head.append(f"# excluded zero coefficients at N = {excluded}")
        head.append("sqrt_N,log_abs_a")
        _write_rows(chain(head, (f"{_fmt(x)},{_fmt(y)}" for x, y in pairs)))
    else:
        import json

        out = {
            "D": args.D, "N_max": args.N, "window": [lo, hi], "slope": _json_float(slope),
            "intercept": _json_float(intercept), "fitted_C": _json_float(slope),
            "excluded_zero": excluded, "pairs": [[x, y] for x, y in pairs],
        }
        print(json.dumps(out))
    return 0


def cmd_grid(args) -> int:
    if 2 * args.re_steps * args.im_steps * PRODUCT_BASE_S > TIME_BUDGET_S:
        return _usage_error("grid size and --nmax exceed the time budget")
    res = _axis(args.re_min, args.re_max, args.re_steps)
    ims = _axis(args.im_min, args.im_max, args.im_steps)
    if not all(map(math.isfinite, res + ims)):
        return _usage_error("grid axis values must be finite")
    from . import analytic

    # z and -1/z, by complex division: im / |z|^2 would overflow or underflow first
    def heights():
        return (h for im in ims for re in res for h in (im, (-1 / complex(re, im)).imag))

    if refusal := _numeric_refusal(args.D, args.nmax, "grid size and --nmax", heights):
        return _usage_error(refusal)
    overflows = 0

    def rows():
        nonlocal overflows
        yield "re,im,re_eta,im_eta,re_eta_inv,im_eta_inv"
        for im in ims:
            for re in res:
                z = complex(re, im)
                cols = [_fmt(re), _fmt(im)]
                for w in (z, -1 / z):
                    try:
                        eta = analytic.eval_eta_numeric(args.D, w, args.nmax)
                        cols += [_fmt(eta.real), _fmt(eta.imag)]
                    except OverflowError:  # past the float range: both columns read inf
                        overflows += 1
                        cols += ["inf", "inf"]
                yield ",".join(cols)

    _write_rows(rows())
    return 0 if overflows == 0 else 1


def _ranged(convert, lo, hi):
    """An option type: convert(text), refused with ValueError, which argparse
    reports as an invalid value, unless lo <= value <= hi (never nan)."""
    def value(text):
        if lo <= (x := convert(text)) <= hi:
            return x
        raise ValueError(f"{text!r} is outside [{lo!r}, {hi!r}]")

    value.__name__ = f"{convert.__name__} in [{lo!r}, {hi!r}]"
    return value


# Each option's range is its type.  A count stops at 2^53, below which every
# integer is exact as a float, so that no cost model that charges it overflows.
_COUNT = _ranged(int, 1, 2**53)
_REAL = _ranged(float, -sys.float_info.max, sys.float_info.max)
_POS = _ranged(float, math.ulp(0.0), sys.float_info.max)

# The options most commands share: flag -> add_argument keywords.
_D = {"--D": {"type": int, "required": True}}
_N = {"--N": {"type": _COUNT, "required": True}}
_FORMAT = {"--format": {"choices": ("csv", "json"), "default": "csv"}}

# The grammar: each command's handler, help string and options, in the order
# --help lists them.  _parse_canonical reads it; _build_parser renders it.
COMMANDS = {
    "coeffs": (cmd_coeffs, "exact coefficients a_D(1..N)", _D | _N | _FORMAT),
    "delta5": (cmd_delta5, "tau_5(1..N) of the fifth-power series", _N | _FORMAT),
    "verify-table": (cmd_verify_table, "recompute all golden coefficients", {}),
    "verify-modularity": (cmd_verify_modularity, "inversion/translation residuals", _D | {
        "--samples": {"type": _COUNT, "default": 20}, "--nmax": {"type": _COUNT, "default": 300},
        "--tol": {"type": _POS, "default": 1e-6},
        "--seed": {"type": _ranged(int, -(2**53), 2**53), "default": 20240901},
    }),
    "oracle-check": (cmd_oracle_check, "convolution oracle vs the exact kernel", _D | _N),
    "partitions": (cmd_partitions, "p, p_nr and length-distribution tables", _D | {
        "--N": {"type": _ranged(int, 0, 2**53), "required": True},
    }),
    "lvalues": (cmd_lvalues, "S_chi, exact L(-1), m, numeric L'(0)", _D),
    "periods": (cmd_periods, "period polynomial coefficients", _D),
    "chars": (cmd_chars, "character value row and residue lists", _D),
    "signs": (cmd_signs, "sign pattern of the embedded coefficients", _D | _N),
    "growth": (cmd_growth, "(sqrt N, log|a_D(N)|) data and fit", _D | _N | {
        "--window-min": {"type": _COUNT, "default": None},
        "--window-max": {"type": _COUNT, "default": None},
    } | _FORMAT),
    "grid": (cmd_grid, "contour grid of eta(z) and eta(-1/z)", {
        "--D": {"type": int, "default": 5},
        "--re-min": {"type": _REAL, "default": -6.0}, "--re-max": {"type": _REAL, "default": 6.0},
        "--im-min": {"type": _POS, "default": 0.1}, "--im-max": {"type": _POS, "default": 1.1},
        "--re-steps": {"type": _COUNT, "default": 60},
        "--im-steps": {"type": _COUNT, "default": 20},
        "--nmax": {"type": _COUNT, "default": 300},
    }),
}


def _build_parser() -> "argparse.ArgumentParser":
    import argparse

    parser = argparse.ArgumentParser(
        prog="hecke-eta",
        description="Eta analogues for Hecke groups H(sqrt(D)): exact "
        "coefficients, partition cross-checks, and transformation-law "
        "verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
        p.set_defaults(func=func)
    return parser


def _parse_canonical(argv) -> SimpleNamespace | None:
    """The namespace of _build_parser() for argv if argv is [command, flag,
    value, ...] with each flag an option of the command in full and once,
    each value of its option's type, which checks its range, and choices,
    and each required option given; else None, and argparse parses argv.
    A value is read as argparse reads --flag=value, so -1e-3, which
    argparse alone takes for an option, is a value here."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    func, _, options = COMMANDS[argv[0]]
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        kw = options.get(flag)
        if kw is None or flag in given:
            return None
        try:
            value = kw.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        given[flag] = value
    if any(kw.get("required") and flag not in given for flag, kw in options.items()):
        return None
    values = {f[2:].replace("-", "_"): given.get(f, kw.get("default")) for f, kw in options.items()}
    return SimpleNamespace(command=argv[0], func=func, **values)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_negative_numbers(argv) -> list[str]:
    """argv for argparse, with each number that begins with - and follows a
    flag of the command in full joined to it as flag=number.  argparse takes
    such a text as -1e-6 or -inf for an option; joined, it reads it as the
    flag's value, as _parse_canonical does, and reports its type or range."""
    options = COMMANDS[argv[0]][2] if argv and argv[0] in COMMANDS else {}
    out = []
    for text in argv:
        if out and out[-1] in options and text.startswith("-") and _is_number(text):
            out[-1] += "=" + text
        else:
            out.append(text)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_canonical(argv) or _build_parser().parse_args(_attach_negative_numbers(argv))
    D = getattr(args, "D", None)
    if D is not None:
        cap = D_CAP[args.command]
        if D > cap:
            return _usage_error(f"--D exceeds the limit {cap} of {args.command}")
        if not is_fundamental(D):
            return _usage_error(f"D={D} is not fundamental (need D = 1 mod 4, squarefree, >= 5)")
    width = SERIES_WIDTH.get(args.command)
    if width and width * _series_s(D or 5, args.N) > TIME_BUDGET_S:
        return _usage_error("--N exceeds the time budget")
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early (| head): devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return STDOUT_CLOSED
    return code


if __name__ == "__main__":
    sys.exit(main())
