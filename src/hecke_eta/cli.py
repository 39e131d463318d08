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
from one integer fixed-point log (lseries.log_fixed).  Each layer prices a
whole command; cli keeps only the budgets.  The grammar is one table,
COMMANDS: _parse reads every command line from it and words its usage
errors, and argparse is loaded, and built from it, only to print help.
Rows go to stdout's own buffer, which main turns on for the command, so
that they reach an unbuffered stdout in a few large writes.
"""

import math
import os
import sys
from itertools import chain, compress, islice, repeat
from operator import eq
from types import SimpleNamespace

from .characters import build_char_table, is_fundamental
from .quad_ring import canonical_str, embed_midpoint, embed_real

# L'(0) in `lvalues` and the log of a coefficient past the float range in
# `growth` are ints in units of 2^-LOG_BITS (lseries.log_fixed), printed as
# their correctly rounded quotient by 2^LOG_BITS.  That float is the exact
# value's unless this lies within a few 2^-LOG_BITS of a rounding boundary of
# a double; 166 bits are the 50 digits of the Decimal L'(0) this replaced.
LOG_BITS = 166

# Input predicted to run longer than TIME_BUDGET_S is refused with exit 2.
# Each layer prices a whole command (oracle.compare_s, partitions.tables_s,
# analytic.numeric_s, qseries.kernel_s) by a model fitted to the end-to-end
# runs it lists (2-vCPU x86-64, Python 3.11), scaled so none took longer.
TIME_BUDGET_S = 60

# partitions also refuses input whose predicted peak RSS (partitions.tables_mb)
# exceeds this, since its time model admits tables of several GB.
MEMORY_BUDGET_MB = 500


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


def _write_rows(rows) -> None:
    """Write each row (a string) as one line."""
    sys.stdout.writelines(row + "\n" for row in rows)


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


def _numeric_refusal(charge: float | None, what: str) -> str | None:
    """Why products of this charge (analytic.numeric_s) are refused, or None."""
    if charge is None:
        return "points too close to the real axis: |q| rounds to 1"
    return f"{what} exceed the time budget" if charge > TIME_BUDGET_S else None


def _axis(lo: float, hi: float, steps: int) -> list[float]:
    """steps evenly spaced values from lo to hi, as grid prints them."""
    return [lo + (hi - lo) * i / max(1, steps - 1) for i in range(steps)]


def cmd_verify_modularity(args) -> int:
    from . import analytic

    if analytic.samples_floor_s(args.D, args.nmax, args.samples) > TIME_BUDGET_S:
        return _usage_error("--samples and --nmax exceed the time budget")
    points = analytic.sample_half_plane_points(args.D, args.samples, seed=args.seed)

    def heights():
        return (w.imag for z in points for w in analytic.law_points(args.D, z))

    charge = analytic.numeric_s(args.D, args.nmax, heights)
    if refusal := _numeric_refusal(charge, "--samples and --nmax"):
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


def cmd_oracle_check(args) -> int:
    from .oracle import compare_s, compare_with_eta

    if compare_s(args.D, args.N) > TIME_BUDGET_S:
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
    from .partitions import build_partition_tables, tables_mb, tables_s

    if tables_s(args.D, args.N) > TIME_BUDGET_S or tables_mb(args.D, args.N) > MEMORY_BUDGET_MB:
        return _usage_error("--N out of range for the partition tables")
    import json

    tables = build_partition_tables(build_char_table(args.D), args.N)
    head = json.dumps({"D": tables.D, "N_max": tables.N_max, "p": tables.p, "p_nr": tables.p_nr})
    # a row of c at a time, so the table is never held as one text
    rows = map(json.dumps, tables.c)
    sys.stdout.write(head[:-1] + ', "c": [' + next(rows, ""))
    sys.stdout.writelines(", " + row for row in rows)
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
    from . import analytic

    if analytic.points_floor_s(2 * args.re_steps * args.im_steps) > TIME_BUDGET_S:
        return _usage_error("grid size and --nmax exceed the time budget")
    res = _axis(args.re_min, args.re_max, args.re_steps)
    ims = _axis(args.im_min, args.im_max, args.im_steps)
    if not all(map(math.isfinite, res + ims)):
        return _usage_error("grid axis values must be finite")

    # z and -1/z, by complex division: im / |z|^2 would overflow or underflow first
    def heights():
        return (h for im in ims for re in res for h in (im, (-1 / complex(re, im)).imag))

    charge = analytic.numeric_s(args.D, args.nmax, heights)
    if refusal := _numeric_refusal(charge, "grid size and --nmax"):
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
    """An option type: convert(text), refused with ValueError, which _parse
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

# The grammar: each command's handler, help string, options, largest --D and
# factor in the series charge (qseries.kernel_s), None where they do not
# apply, in the order --help lists them.  _parse reads it; _build_parser
# renders its help.  Each --D cap is checked before the discriminant's trial
# division, measured end to end (2-vCPU x86-64, Python 3.11) with the least
# work the command accepts; memory grows with D too, so these caps are the
# largest D measured.  periods, one transform of length phi(D)/2 on
# coefficients whose width varies with D, is slowest at prime D: 2.2-3.1 s at
# D = 10009, 3-7 s at six random primes in 13000..20000, and past the cap
# 6.0 s at 20021, 7.9 s at 22697, 18 s at 25033, 20 s at 33013 and 72 s and
# 70 MB at 40009, where the coefficients are twice as wide as at 33013; the
# cap keeps an 8x margin for that spread.  lvalues (the character table and
# two O(D) sums) and chars took 0.7-1.1 s at D = 1000001, and 3.8-5.1 s and
# 77 MB at 3999949 and 3999997; coeffs, signs and growth at N = 1 took up to
# 3.8 s and 77 MB there, grid at one point 16 s and 229 MB at 3999997, and
# verify-modularity at one sample 31 s at D = 2000001.  partitions took
# 0.90 s and 41 MB at D = 999997, N = 0, and 4.6 s and 201 MB at N = 20; its
# cost model accepts the cap, which is the binding limit.  Above the cap of
# oracle-check its cost model refuses every input anyway: it accepts no D
# above 88577 (101 * 877, 43 s and 86 MB at N = 1; the largest prime it
# accepts, 88513, took 43 s there).  The series factor is a command's cost
# over coeffs at the same D and N; signs and growth cost the same.  delta5,
# at D = 5 on the wider coefficients of eta_5^5, took 24 s at N = 12000, 44 s
# at 16000, 54 s at 17000, 58 s at 18000 and 71 s at 20000 (48 MB at 16000),
# and re-timed 28.7 s at 16000, 3.1x coeffs --D 5, which the model
# over-predicts 3.1x; 2 (at most 2.07 keeps every N <= 16000) accepts
# N <= 16250, 26-34 s and 41 MB there.
COMMANDS = {
    "coeffs": (cmd_coeffs, "exact coefficients a_D(1..N)", _D | _N | _FORMAT, 4_000_000, 1),
    "delta5": (cmd_delta5, "tau_5(1..N) of the fifth-power series", _N | _FORMAT, None, 2.0),
    "verify-table": (cmd_verify_table, "recompute all golden coefficients", {}, None, None),
    "verify-modularity": (cmd_verify_modularity, "inversion/translation residuals", _D | {
        "--samples": {"type": _COUNT, "default": 20}, "--nmax": {"type": _COUNT, "default": 300},
        "--tol": {"type": _POS, "default": 1e-6},
        "--seed": {"type": _ranged(int, -(2**53), 2**53), "default": 20240901},
    }, 2_000_000, None),
    "oracle-check": (
        cmd_oracle_check, "convolution oracle vs the exact kernel", _D | _N, 88_577, None),
    "partitions": (cmd_partitions, "p, p_nr and length-distribution tables", _D | {
        "--N": {"type": _ranged(int, 0, 2**53), "required": True},
    }, 1_000_000, None),
    "lvalues": (cmd_lvalues, "S_chi, exact L(-1), m, numeric L'(0)", _D, 4_000_000, None),
    "periods": (cmd_periods, "period polynomial coefficients", _D, 20_000, None),
    "chars": (cmd_chars, "character value row and residue lists", _D, 4_000_000, None),
    "signs": (cmd_signs, "sign pattern of the embedded coefficients", _D | _N, 4_000_000, 1),
    "growth": (cmd_growth, "(sqrt N, log|a_D(N)|) data and fit", _D | _N | {
        "--window-min": {"type": _COUNT, "default": None},
        "--window-max": {"type": _COUNT, "default": None},
    } | _FORMAT, 4_000_000, 1),
    "grid": (cmd_grid, "contour grid of eta(z) and eta(-1/z)", {
        "--D": {"type": int, "default": 5},
        "--re-min": {"type": _REAL, "default": -6.0}, "--re-max": {"type": _REAL, "default": 6.0},
        "--im-min": {"type": _POS, "default": 0.1}, "--im-max": {"type": _POS, "default": 1.1},
        "--re-steps": {"type": _COUNT, "default": 60},
        "--im-steps": {"type": _COUNT, "default": 20},
        "--nmax": {"type": _COUNT, "default": 300},
    }, 4_000_000, None),
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
    for name, (func, summary, options, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
        p.set_defaults(func=func)
    return parser


def _parse(argv) -> SimpleNamespace | str:
    """The namespace of argv, read from COMMANDS, or the text of its usage
    error.  argv is [command, flag, value, ...], each flag an option of the
    command, in full or cut to a prefix no other option shares, its value
    after = or the next token, whatever that is (so -1e-3 is a value); a
    repeated flag keeps its last value.  A value must be of its option's
    type, which checks its range, and among its choices.  A help flag
    anywhere has argparse, loaded for it alone, print the help of argv's
    command, or of the program, and exit 0."""
    if not {"-h", "--h", "--he", "--hel", "--help"}.isdisjoint(argv):
        _build_parser().parse_args([argv[0], "--help"] if argv[0] in COMMANDS else ["--help"])
    if not argv or argv[0] not in COMMANDS:
        what = f"invalid command {argv[0]!r}" if argv else "no command"
        return f"{what}: choose from {', '.join(COMMANDS)}"
    func, _, options, _, _ = COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        flags = [name] if name in options else [
            f for f in options if len(name) > 2 and f.startswith(name)]
        if len(flags) != 1:
            return (f"ambiguous option: {name} could match {', '.join(flags)}" if flags
                    else f"unrecognized argument: {token}")
        kw = options[flag := flags[0]]
        if not eq and (text := next(tokens, None)) is None:
            return f"argument {flag}: expected one argument"
        try:
            given[flag] = kw.get("type", str)(text)
        except (TypeError, ValueError):
            return f"argument {flag}: invalid {kw['type'].__name__} value: {text!r}"
        if "choices" in kw and given[flag] not in kw["choices"]:
            return f"argument {flag}: {text!r} is not one of {', '.join(kw['choices'])}"
    if missing := [f for f, kw in options.items() if kw.get("required") and f not in given]:
        return f"the following arguments are required: {', '.join(missing)}"
    values = {f[2:].replace("-", "_"): given.get(f, kw.get("default")) for f, kw in options.items()}
    return SimpleNamespace(command=argv[0], func=func, **values)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if isinstance(args, str):
        return _usage_error(args)
    *_, cap, factor = COMMANDS[args.command]
    D = getattr(args, "D", None)
    if D is not None:
        if D > cap:
            return _usage_error(f"--D exceeds the limit {cap} of {args.command}")
        if not is_fundamental(D):
            return _usage_error(f"D={D} is not fundamental (need D = 1 mod 4, squarefree, >= 5)")
    if factor:
        from .qseries import kernel_s

        if factor * kernel_s(D or 5, args.N) > TIME_BUDGET_S:
            return _usage_error("--N exceeds the time budget")
    try:
        # where stdout is unbuffered (PYTHONUNBUFFERED) each write is a system
        # call: its own buffer gathers them into chunks of 8 kB
        if hasattr(sys.stdout, "reconfigure"):
            sys.stdout.reconfigure(write_through=False, line_buffering=False)
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early (| head): devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return STDOUT_CLOSED
    return code


if __name__ == "__main__":
    sys.exit(main())
