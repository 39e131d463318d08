"""Output checks for every job kind, by routes that never call the timed code.

Exact coefficients (``coeffs``, ``signs``, ``growth``, ``delta5``) are
compared, every row, with a reference series computed here from the Lambert
recurrence

    k a(k) = sum_{j<=k} b(j) a(k-j),
    b(k) = -(sum_{d|k} d chi(d) + sqrt(D) sum_{d|k} d chi(k/d)),

with b scaled by 5 for the fifth power behind ``delta5``.  The reference is
itself checked against the embedded golden table before it is trusted.  The
law checks (``verify-*``, ``oracle-check``, the library calls) must report
PASS, since the laws are theorems; ``periods``, ``lvalues``, ``chars`` and
``partitions`` are recomputed or tested against identities; ``grid`` rows
are spot-checked against a direct product at the same truncation.

``check`` returns one of three verdicts:

* ``ok``: exit 0 and the output agrees with the independent route;
* ``fail``: the job failed without giving a wrong answer: a non-zero exit
  or a numeric law residual over its tolerance (the program's own FAIL);
* ``wrong``: the output contradicts the independent route, or is malformed
  while the program claimed success.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction
from math import isqrt
from operator import mul

from hecke_eta.golden import COEFF_TABLE, TAU5_TABLE  # static data, not timed code
from workloads import totient


class Mismatch(Exception):
    """The output contradicts the independent route."""


class LawFailed(Exception):
    """A numeric law check reported a residual over its tolerance."""


# Kinds that report a failed verification with exit code 1 and full output.
REPORTING_KINDS = {"verify-modularity", "verify-table", "oracle-check"}
U_GAMMA_TOL = 1e-4  # the tolerance the check_u_gamma docstring and tests use
PHI_TOL = 1e-8  # the tolerance of the Phi relation at its default 400 terms


def jacobi(n: int, D: int) -> int:
    a, m, r = n % D, D, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                r = -r
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            r = -r
        a %= m
    return r if m == 1 else 0


def _moebius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _embed(a: int, b: int, D: int) -> float:
    """(a + b sqrt(D)) / 2, correctly rounded to a float."""
    p = 30 + len(str(abs(a))) + len(str(abs(b)))
    return float(Fraction(a * 10**p + b * isqrt(D * 10 ** (2 * p)), 2 * 10**p))


def _sign(a: int, b: int, D: int) -> int:
    """Exact sign of a + b sqrt(D)."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > D * b * b else sb


def _close(x: float, ref: float, rel: float) -> bool:
    return math.isclose(x, ref, rel_tol=rel, abs_tol=1e-300)


_ELEM = re.compile(r"\((-?\d+)([+-])(\d+)\*sqrt\((\d+)\)\)/2$")


def _parse_elem(s: str, D: int) -> tuple[int, int]:
    m = _ELEM.match(s)
    _expect(m is not None and int(m.group(4)) == D, f"malformed ring element {s!r}")
    b = int(m.group(3))
    return int(m.group(1)), -b if m.group(2) == "-" else b


def _cyclotomic_poly(n: int) -> list[int]:
    """Phi_n(x) = prod_{d|n} (x^d - 1)^mu(n/d), by exact integer division."""
    num, den = [1], [1]
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = _moebius(n // d)
        if mu:
            target = num if mu == 1 else den
            poly = [-1] + [0] * (d - 1) + [1]
            prod = [0] * (len(target) + d)
            for i, c in enumerate(target):
                for j, e in enumerate(poly):
                    prod[i + j] += c * e
            target[:] = prod
    quot = [0] * (len(num) - len(den) + 1)
    rem = num[:]
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = rem[i + len(den) - 1] // den[-1]
        for j, e in enumerate(den):
            rem[i + j] -= quot[i] * e
    if any(rem):
        raise ArithmeticError("cyclotomic division left a remainder")
    return quot


class Checker:
    """Checks job outputs; caches the reference series across the jobs of a run."""

    def __init__(self):
        self._series: dict[tuple[int, int], tuple[list[int], list[int]]] = {}

    # -- reference coefficients ------------------------------------------------

    def series(self, D: int, N: int, scale: int = 1) -> tuple[list[int], list[int]]:
        """Numerator pairs (A, B) of a(0..N), a(k) = (A_k + B_k sqrt(D)) / 2.

        scale = 1 gives the eta product, scale = 5 (D = 5) its fifth power.
        """
        key = (D, scale)
        A, B = self._series.get(key, ([2], [0]))
        if len(A) > N:
            return A, B
        chi = [jacobi(n, D) for n in range(D)]
        s1 = [0] * (N + 1)
        s2 = [0] * (N + 1)
        for d in range(1, N + 1):
            for m in range(d, N + 1, d):
                s1[m] += scale * d * chi[d % D]
                s2[m] += scale * d * chi[(m // d) % D]
        Ds2 = [D * x for x in s2]
        for k in range(len(A), N + 1):
            # sum over j = 1..k of b(j) a(k-j), with A[k-1::-1] = A[k-1], ..., A[0]
            ra_, rb_ = A[k - 1 :: -1], B[k - 1 :: -1]
            ra = sum(map(mul, s1[1 : k + 1], ra_)) + sum(map(mul, Ds2[1 : k + 1], rb_))
            rb = sum(map(mul, s1[1 : k + 1], rb_)) + sum(map(mul, s2[1 : k + 1], ra_))
            qa, r1 = divmod(-ra, k)
            qb, r2 = divmod(-rb, k)
            if r1 or r2:
                raise ArithmeticError(f"reference recurrence not exact at k={k}, D={D}")
            A.append(qa)
            B.append(qb)
        self._check_against_golden(D, scale, A, B)
        self._series[key] = (A, B)
        return A, B

    @staticmethod
    def _check_against_golden(D, scale, A, B) -> None:
        table = TAU5_TABLE if scale == 5 else COEFF_TABLE.get(D, {})
        shift = 1 if scale == 5 else 0
        for n, pair in table.items():
            k = n - shift
            if k < len(A) and (A[k], B[k]) != pair:
                raise ArithmeticError(f"reference series disagrees with golden at D={D}, n={n}")

    # -- dispatch ----------------------------------------------------------------

    def check(self, job: dict, code: int, out: str) -> tuple[str, str]:
        kind = job["cli"][0] if "cli" in job else job["lib"]
        if code != 0 and not (code == 1 and kind in REPORTING_KINDS):
            return "fail", f"exit code {code}"
        fn = getattr(self, "_" + kind.replace("-", "_"))
        try:
            if "cli" in job:
                fn(job["cli"], out)
            else:
                fn(job["args"], out)
        except LawFailed as exc:
            return "fail", str(exc)
        except Mismatch as exc:
            return "wrong", str(exc)
        except (ValueError, KeyError, IndexError, TypeError, OverflowError) as exc:
            return "wrong", f"malformed output: {exc!r}"
        if code != 0:
            return "wrong", "exit code 1 but every reported check passed"
        return "ok", ""

    # -- exact coefficients ------------------------------------------------------

    def _rows(self, out: str, fmt: str) -> list[tuple[int, int, int, int, float]]:
        lines = out.splitlines()
        if fmt == "csv":
            _expect(lines[:1] == ["D,N,num_a,num_b,real"], "missing csv header")
            rows = [line.split(",") for line in lines[1:]]
            return [(int(d), int(n), int(a), int(b), float(r)) for d, n, a, b, r in rows]
        rows = [json.loads(line) for line in lines]
        for r in rows:
            _expect(r["den"] == 2, "denominator is not 2")
        return [(r["D"], r["N"], r["a"], r["b"], float(r["real"])) for r in rows]

    def _compare_rows(self, rows, D, N, A, B, shift) -> None:
        _expect(len(rows) == N, f"{len(rows)} rows for N={N}")
        for n, (d, n_out, a, b, real) in enumerate(rows, start=1):
            _expect(d == D and n_out == n, f"row {n} is labelled D={d}, N={n_out}")
            k = n - shift
            _expect((a, b) == (A[k], B[k]), f"coefficient {n} is ({a},{b}), expected ({A[k]},{B[k]})")
            _expect(_close(real, _embed(a, b, D), 1e-14), f"real column of row {n} is {real}")

    def _coeffs(self, argv, out) -> None:
        D, N = int(_opt(argv, "--D")), int(_opt(argv, "--N"))
        A, B = self.series(D, N)
        self._compare_rows(self._rows(out, _opt(argv, "--format", "csv")), D, N, A, B, 0)

    def _delta5(self, argv, out) -> None:
        N = int(_opt(argv, "--N"))
        A, B = self.series(5, max(N - 1, 1), scale=5)
        self._compare_rows(self._rows(out, _opt(argv, "--format", "csv")), 5, N, A, B, 1)

    def _signs(self, argv, out) -> None:
        D, N = int(_opt(argv, "--D")), int(_opt(argv, "--N"))
        A, B = self.series(D, N)
        rep = json.loads(out)
        signs = [_sign(A[n], B[n], D) for n in range(1, N + 1)]
        _expect(rep["D"] == D and rep["N_max"] == N, "header fields")
        _expect(rep["signs"] == signs, "sign pattern differs from the exact signs")
        nonzero = [(n, s) for n, s in enumerate(signs, start=1) if s]
        changes = [n for (_, s0), (n, s) in zip(nonzero, nonzero[1:]) if s != s0]
        _expect(rep["sign_changes"] == changes and rep["count"] == len(changes), "sign changes")

    def _growth(self, argv, out) -> None:
        D, N = int(_opt(argv, "--D")), int(_opt(argv, "--N"))
        A, B = self.series(D, N)
        if _opt(argv, "--format", "csv") == "json":
            rep = json.loads(out)
            pairs = [tuple(p) for p in rep["pairs"]]
            slope, intercept, excluded = rep["slope"], rep["intercept"], rep["excluded_zero"]
            _expect(rep["fitted_C"] == slope and rep["window"] == [1, N], "fit header")
        else:
            lines = out.splitlines()
            head = dict(kv.split("=", 1) for kv in lines[0].lstrip("# ").split())
            slope, intercept = float(head["slope"]), float(head["intercept"])
            _expect(head["window"] == f"1..{N}" and float(head["fitted_C"]) == slope, "fit header")
            excluded = []
            body = lines[1:]
            if body and body[0].startswith("# excluded zero coefficients at N = "):
                excluded = json.loads(body.pop(0).split("= ", 1)[1])
            _expect(body[:1] == ["sqrt_N,log_abs_a"], "missing csv header")
            pairs = [tuple(float(v) for v in line.split(",")) for line in body[1:]]
        nonzero = [n for n in range(1, N + 1) if A[n] or B[n]]
        _expect(excluded == [n for n in range(1, N + 1) if not (A[n] or B[n])], "zero list")
        _expect(len(pairs) == len(nonzero), f"{len(pairs)} pairs, expected {len(nonzero)}")
        xs, ys = [], []
        for n, (x, y) in zip(nonzero, pairs):
            ref = math.log(abs(_embed(A[n], B[n], D)))
            _expect(_close(x, math.sqrt(n), 1e-15), f"sqrt column at N={n}")
            _expect(abs(y - ref) <= 1e-12 * max(1.0, abs(ref)), f"log|a| at N={n} is {y}, expected {ref}")
            xs.append(x)
            ys.append(ref)
        k = len(xs)
        sx, sy = sum(xs), sum(ys)
        ref_slope = (k * sum(x * y for x, y in zip(xs, ys)) - sx * sy) / (k * sum(x * x for x in xs) - sx * sx)
        ref_intercept = (sy - ref_slope * sx) / k
        _expect(_close(slope, ref_slope, 1e-9), f"fit slope {slope}, expected {ref_slope}")
        _expect(abs(intercept - ref_intercept) <= 1e-9 * max(1.0, abs(ref_intercept)), "fit intercept")

    # -- structure behind the kernel ---------------------------------------------

    def _periods(self, argv, out) -> None:
        D = int(_opt(argv, "--D"))
        rep = json.loads(out)
        fp = [_parse_elem(s, D) for s in rep["f_plus"]]
        fm = [_parse_elem(s, D) for s in rep["f_minus"]]
        half = totient(D) // 2
        _expect(rep["D"] == D and len(fp) == len(fm) == half + 1, "degree is not phi(D)/2")
        _expect(fp[0] == fm[0] == (2, 0), "constant term is not 1")
        _expect(fm == [(a, -b) for a, b in fp], "conjugation does not swap f_plus and f_minus")
        # The x coefficient of f_plus is minus the Gauss period: -(mu(D) + sqrt(D)) / 2.
        _expect(fp[1] == (-_moebius(D), -1), f"x coefficient of f_plus is {fp[1]}")
        # f_plus * f_minus = prod over units a of (1 - zeta^a x) = Phi_D(x).
        phi_D = _cyclotomic_poly(D)
        for k in range(2 * half + 1):
            ra = rb = 0
            for i in range(max(0, k - half), min(k, half) + 1):
                (a1, b1), (a2, b2) = fp[i], fm[k - i]
                ra += a1 * a2 + D * b1 * b2
                rb += a1 * b2 + a2 * b1
            _expect(ra == 4 * phi_D[k] and rb == 0, f"f_plus*f_minus differs from Phi_D at x^{k}")

    def _lvalues(self, argv, out) -> None:
        D = int(_opt(argv, "--D"))
        rep = json.loads(out)
        chi = [jacobi(n, D) for n in range(D)]
        S = sum(n * n * chi[n % D] for n in range(1, D + 1))
        L = Fraction(-S, 2 * D)
        m = -L / 2
        _expect(rep["S_chi"] == S and rep["L_minus_1"] == str(L), "S_chi or L(-1)")
        _expect(rep["m"] == (int(m) if m.denominator == 1 else str(m)), "m")
        lp = sum(chi[a] * math.lgamma(a / D) for a in range(1, D))
        _expect(math.isclose(rep["L_prime_0"], lp, rel_tol=1e-9, abs_tol=1e-9), "L'(0)")

    def _chars(self, argv, out) -> None:
        D = int(_opt(argv, "--D"))
        rep = json.loads(out)
        chi = [jacobi(n, D) for n in range(D)]
        _expect(rep["D"] == D and rep["values"] == chi, "character values")
        _expect(rep["qr"] == [a for a in range(1, D + 1) if chi[a % D] == 1], "residues")
        _expect(rep["nr"] == [a for a in range(1, D + 1) if chi[a % D] == -1], "non-residues")

    # -- the independent partition route -----------------------------------------

    def _partitions(self, argv, out) -> None:
        D, N = int(_opt(argv, "--D")), int(_opt(argv, "--N"))
        rep = json.loads(out)
        _expect(rep["D"] == D and rep["N_max"] == N, "header fields")
        # p(k, l): partitions of k into exactly l parts.
        pkl = [[0] * (N + 1) for _ in range(N + 1)]
        pkl[0][0] = 1
        for k in range(1, N + 1):
            for ell in range(1, k + 1):
                pkl[k][ell] = pkl[k - 1][ell - 1] + pkl[k - ell][ell]
        p = [sum(row) for row in pkl]
        p_nr = [1] + [0] * N
        for part in range(1, N + 1):
            if jacobi(part, D) == -1:
                for k in range(part, N + 1):
                    p_nr[k] += p_nr[k - part]
        _expect(rep["p"] == p, "p(k)")
        _expect(rep["p_nr"] == p_nr, "p_nr(k)")
        c = rep["c"]
        _expect(len(c) == N + 1, "length-distribution rows")
        for k, row in enumerate(c):
            _expect(sum(row) == p[k], f"row {k} does not sum to p({k})")
            ref = [0] * D
            for ell in range(k + 1):
                ref[ell % D] += pkl[k][ell]
            _expect(row == ref, f"length distribution row {k}")

    def _oracle_check(self, argv, out) -> None:
        N = int(_opt(argv, "--N"))
        _expect(out == f"PASS {N + 1}/{N + 1} coefficients match\n", f"oracle reported {out.strip()!r}")

    def _verify_table(self, argv, out) -> None:
        lines = out.splitlines()
        expected = [(f"a_{D}({n})", D, pair) for D in sorted(COEFF_TABLE) for n, pair in sorted(COEFF_TABLE[D].items())]
        expected += [(f"tau_5({n})", 5, pair) for n, pair in sorted(TAU5_TABLE.items())]
        total = len(expected)
        _expect(len(lines) == total + 1 and lines[-1] == f"{total}/{total} entries verified", "summary")
        for line, (label, D, pair) in zip(lines, expected):
            status, rest = line.split(" ", 1)
            name, value = rest.split(" = ", 1)
            _expect(status == "PASS" and name == label, f"table line {line!r}")
            _expect(_parse_elem(value.split(" ")[0], D) == pair, f"table value {line!r}")

    # -- numeric law checks --------------------------------------------------------

    def _verify_modularity(self, argv, out) -> None:
        D = int(_opt(argv, "--D"))
        samples = int(_opt(argv, "--samples", 20))
        tol = float(_opt(argv, "--tol", 1e-6))
        lines = out.splitlines()
        _expect(len(lines) == samples + 1, f"{len(lines) - 1} points, expected {samples}")
        half = math.sqrt(D) / 2
        worst, failed = 0.0, 0
        pat = re.compile(r"(PASS|FAIL) z=(\S+)\+(\S+)i inversion=(\S+) translation=(\S+)$")
        for line in lines[:-1]:
            m = pat.match(line)
            _expect(m is not None, f"malformed line {line!r}")
            status, re_z, im_z, r_inv, r_tra = m.groups()
            r_inv, r_tra = float(r_inv), float(r_tra)
            _expect(abs(float(re_z)) <= half and 0.5 <= float(im_z) <= 1.5, f"point outside the strip: {line!r}")
            _expect((status == "PASS") == (r_inv < tol and r_tra < tol), f"verdict contradicts residuals: {line!r}")
            worst = max(worst, r_inv, r_tra)
            failed += status == "FAIL"
        _expect(lines[-1] == f"worst residual {worst:.3e} over {samples} points (tol {tol:g})", "summary line")
        if failed:
            raise LawFailed(f"{failed}/{samples} points over tol {tol:g}, worst residual {worst:.3e}")

    def _check_u_gamma(self, args, out) -> None:
        rep = json.loads(out)
        _expect(rep["u"] == sum(args["ks"]) % 5, f"multiplier exponent {rep['u']}")
        if not rep["residual"] < U_GAMMA_TOL:
            raise LawFailed(f"residual {rep['residual']:.3e} over {U_GAMMA_TOL:g}")

    def _check_phi_relation(self, args, out) -> None:
        rep = json.loads(out)
        if not rep["residual"] < PHI_TOL:
            raise LawFailed(f"residual {rep['residual']:.3e} over {PHI_TOL:g}")

    def _grid(self, argv, out) -> None:
        D = int(_opt(argv, "--D", 5))
        re_min, re_max = float(_opt(argv, "--re-min", -6.0)), float(_opt(argv, "--re-max", 6.0))
        im_min, im_max = float(_opt(argv, "--im-min", 0.1)), float(_opt(argv, "--im-max", 1.1))
        re_steps, im_steps = int(_opt(argv, "--re-steps", 60)), int(_opt(argv, "--im-steps", 20))
        nmax = int(_opt(argv, "--nmax", 300))
        lines = out.splitlines()
        _expect(lines[:1] == ["re,im,re_eta,im_eta,re_eta_inv,im_eta_inv"], "missing csv header")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        _expect(len(rows) == re_steps * im_steps, f"{len(rows)} grid rows")
        points = []
        for i in range(im_steps):
            im = im_min + (im_max - im_min) * i / max(1, im_steps - 1)
            for j in range(re_steps):
                points.append(complex(re_min + (re_max - re_min) * j / max(1, re_steps - 1), im))
        for row, z in zip(rows, points):
            _expect(row[0] == z.real and row[1] == z.imag, f"grid point {row[:2]}")
        eta = _EtaProduct(D, nmax)
        for idx in sorted({0, len(rows) // 2, len(rows) - 1}):
            row, z = rows[idx], points[idx]
            for got, w in ((complex(row[2], row[3]), z), (complex(row[4], row[5]), -1 / z)):
                ref = eta(w)
                _expect(abs(got - ref) <= 1e-8 * abs(ref) + 1e-300, f"eta({w}) = {got}, expected {ref}")


def corrupt_one_coefficient(out: str, row: int) -> str:
    """The csv of a coeffs job with one coefficient off by one unit of O_D."""
    lines = out.splitlines(keepends=True)
    d, n, a, b, real = lines[row].split(",")
    lines[row] = ",".join([d, n, str(int(a) + 2), b, real])
    return "".join(lines)


class _EtaProduct:
    """q^m prod_{n<=nmax} (1-q^n)^chi(n) prod_a (1-zeta^a q^n)^chi(a), multiplied out.

    A direct product in complex doubles, renormalised by a power of two after
    every n so it cannot overflow, where the program sums logarithms.
    """

    def __init__(self, D: int, nmax: int):
        self.D, self.nmax = D, nmax
        self.chi = [jacobi(n, D) for n in range(D)]
        S = sum(n * n * self.chi[n % D] for n in range(1, D + 1))
        self.m = S / (4 * D)  # m = -L(-1)/2 with L(-1) = -S/(2D)
        self.zetas = [cmath.exp(2j * math.pi * a / D) for a in range(D)]

    def __call__(self, z: complex) -> complex:
        D, chi, zetas = self.D, self.chi, self.zetas
        q = cmath.exp(2j * math.pi * z / math.sqrt(D))
        val, exp2 = 1 + 0j, 0
        qn = 1 + 0j
        for n in range(1, self.nmax + 1):
            qn *= q
            if abs(qn) < 1e-20:
                break
            factor = (1 - qn) ** chi[n % D]
            for a in range(1, D):
                if chi[a]:
                    factor *= (1 - zetas[a] * qn) ** chi[a]
            val *= factor
            _, e = math.frexp(abs(val))
            val = complex(math.ldexp(val.real, -e), math.ldexp(val.imag, -e))
            exp2 += e
        log_prefactor = 2j * math.pi * self.m * z / math.sqrt(D)
        log_abs = math.log(abs(val)) + exp2 * math.log(2) + log_prefactor.real
        if log_abs < -745:
            return 0j
        return cmath.rect(math.exp(log_abs), cmath.phase(val) + log_prefactor.imag)
