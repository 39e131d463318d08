"""Independent brute-force oracles used only by the tests.

Deliberately naive routes (enumeration, two-variable DP, products of Euler
factors as schoolbook series products, the period polynomials and the eta
product multiplied out factor by factor, exactly and numerically, the
oracle's series product by cyclic convolutions, group words as plain matrix
products, L(s, chi) by the Hurwitz zeta function and L'(0, chi) by
log-Gamma) that share no code with the library paths they check, and the
deterministic samples the tests draw.
"""

import cmath
import math
import random
from functools import lru_cache
from math import gcd
from operator import mul

import mpmath

from hecke_eta.analytic import word_matrix
from hecke_eta.characters import build_char_table, euler_phi, is_fundamental, moebius
from hecke_eta.cyclotomic import cyc_mul, project_to_quad
from hecke_eta.oracle import CycSeries

# The displayed-but-misindexed coefficient: equals tau_5(7), not tau_5(6)
# (see the tau_5 table in hecke_eta/golden.py).
TAU5_DISPLAY_VARIANT: tuple[int, tuple[int, int]] = (6, (20565, 6965))


def enumerate_partitions(k, max_part=None):
    """Yield all partitions of k as weakly decreasing tuples."""
    if max_part is None:
        max_part = k
    if k == 0:
        yield ()
        return
    for first in range(min(k, max_part), 0, -1):
        for rest in enumerate_partitions(k - first, first):
            yield (first,) + rest


def dp_partition_counts(N):
    """p(0..N) by the classic parts-by-parts DP (no pentagonal numbers)."""
    table = [0] * (N + 1)
    table[0] = 1
    for part in range(1, N + 1):
        for k in range(part, N + 1):
            table[k] += table[k - part]
    return table


@lru_cache(maxsize=None)
def length_distribution_by_parts(D, N):
    """c[k][r] = partitions of k with length r mod D, by the DP over part
    sizes on prod_n (1 - t q^n)^{-1}: adding a part moves residue r-1 to r."""
    c = [[0] * D for _ in range(N + 1)]
    c[0][0] = 1
    for part in range(1, N + 1):
        for k in range(part, N + 1):
            row = c[k]
            prev = c[k - part]
            for r in range(D):
                row[r] += prev[r - 1]
    return c


def euler_product_plain(factors, N):
    """prod (1 - q^d)^e over the pairs (d, e), e in {-1, 0, 1}, truncated at
    q^N: each factor written out as a series (1 - q^d, or the geometric
    series of q^d) and multiplied in by the schoolbook product."""
    P = [1] + [0] * N
    for d, e in factors:
        if e == 0:
            continue
        f = [0] * (N + 1)
        f[0] = 1
        if e == 1:
            if d <= N:
                f[d] = -1
        else:
            f[::d] = [1] * len(f[::d])
        P = [sum(P[i] * f[k - i] for i in range(k + 1)) for k in range(N + 1)]
    return P


def fundamental_discriminants(limit):
    """All fundamental D = 1 mod 4 with 5 <= D <= limit, ascending: the
    discriminants the tests sweep."""
    return [D for D in range(5, limit + 1, 4) if is_fundamental(D)]


def jacobi(n, D):
    """Jacobi symbol (n/D) for odd D > 0 by the reciprocity loop, O(log^2 D),
    with no factorisation: the reference for the character table."""
    a = n % D
    m = D
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def squares_mod(D):
    """Brute-force set {a^2 mod D : gcd(a, D) = 1}."""
    return {a * a % D for a in range(1, D) if gcd(a, D) == 1}


def residues(chi, sign):
    """The units a in [1, D), D = len(chi), ascending, with chi_D(a) = sign:
    the quadratic residues for sign = 1, the non-residues for sign = -1."""
    return tuple(a for a in range(1, len(chi)) if chi[a] == sign)


def l_prime_zero_loggamma(chi, digits=30):
    """L'(0, chi_D) = sum_{a=1}^{D-1} chi_D(a) log Gamma(a/D), the log-Gamma
    formula for even primitive characters, in mpmath at digits + 10 digits:
    independent of lseries' class number route."""
    D = len(chi)
    with mpmath.workdps(digits + 10):
        total = mpmath.mpf(0)
        for a in range(1, D):
            c = chi[a]
            if c:
                total += c * mpmath.loggamma(mpmath.mpf(a) / D)
        return +total


def l_function_hurwitz(chi, s, digits=30):
    """L(s, chi_D) = D^-s sum_a chi(a) zeta(s, a/D), the Hurwitz-zeta
    decomposition: independent of lseries' class number route, so finite
    differences of it at s = 0 must reproduce l_prime_zero."""
    D = len(chi)
    with mpmath.workdps(digits + 10):
        s = mpmath.mpf(s)
        total = mpmath.mpf(0)
        for a in range(1, D):
            c = chi[a]
            if c:
                total += c * mpmath.zeta(s, mpmath.mpf(a) / D)
        return +(mpmath.power(D, -s) * total)


def random_words(count, max_len=6, k_range=2, seed=31415):
    """Deterministic sample of D = 5 group words with entries |k_i| <= k_range."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        ell = rng.randint(1, max_len)
        ks = [rng.randint(-k_range, k_range) for _ in range(ell)]
        words.append(word_matrix(ks, 5))
    return words


def _count_with_allowed(k, max_part, allowed):
    if k == 0:
        return 1
    total = 0
    for part in allowed:
        if part > min(k, max_part):
            break
        total += _count_with_allowed(k - part, part, allowed)
    return total


def count_partitions_with_parts(k, allowed_parts):
    """Partitions of k into parts from the ascending tuple allowed_parts."""
    return _count_with_allowed(k, k, tuple(sorted(allowed_parts)))


def embed_mp(x, dps=60):
    """(a + b sqrt(D))/2 in mpmath to dps significant digits: the working
    precision is padded by the operand length, so cancellation between a and
    b sqrt(D) cannot eat into them."""
    pad = len(str(max(abs(x.num_a), abs(x.num_b))))
    with mpmath.workdps(dps + 2 * pad + 10):
        value = (x.num_a + x.num_b * mpmath.sqrt(x.D)) / 2
    with mpmath.workdps(dps):
        return +value


def _halve(n):
    q, r = divmod(n, 2)
    assert r == 0, "odd numerator after a product step"
    return q


def euler_transform_plain(P, Q, D, N):
    """The Euler-transform recurrence of qseries.euler_transform, one order
    at a time: 2k A_k = sum_j (P_j A_{k-j} + D Q_j B_{k-j}) and
    2k B_k = sum_j (P_j B_{k-j} + Q_j A_{k-j}), O(N^2) products."""
    DQ = [D * x for x in Q]
    A = [2]
    B = [0]
    for k in range(1, N + 1):
        ta, ra = divmod(
            sum(map(mul, P, reversed(A))) + sum(map(mul, DQ, reversed(B))), 2 * k
        )
        tb, rb = divmod(
            sum(map(mul, P, reversed(B))) + sum(map(mul, Q, reversed(A))), 2 * k
        )
        assert ra == 0 and rb == 0, f"inexact division by {k}"
        A.append(ta)
        B.append(tb)
    return A, B


def mul_pairs_plain(A1, B1, A2, B2, D, N):
    """qseries._mul_pairs by the schoolbook double loop: the truncated
    product of two numerator-pair series, a shorter operand zero-padded."""
    A = [0] * (N + 1)
    B = [0] * (N + 1)
    for i in range(min(N + 1, len(A1))):
        a1 = A1[i]
        b1 = B1[i]
        for j in range(min(N + 1 - i, len(A2))):
            A[i + j] += a1 * A2[j] + D * b1 * B2[j]
            B[i + j] += a1 * B2[j] + b1 * A2[j]
    return [_halve(a) for a in A], [_halve(b) for b in B]


def mul_dense_plain(f, g):
    """oracle.CycSeries.mul_dense by the double loop over q-powers: one
    cyclic convolution (cyclotomic.cyc_mul) per pair of nonzero coefficients
    i + j <= prec."""
    N = f.prec
    out = [[0] * f.D for _ in range(N + 1)]
    for i, ci in enumerate(f.coeffs):
        if not any(ci):
            continue
        for j in range(N + 1 - i):
            cj = g.coeffs[j]
            if any(cj):
                out[i + j] = [a + b for a, b in zip(out[i + j], cyc_mul(ci, cj))]
    return CycSeries(f.D, out)


def _poly_step(A, B, fa, fb, n, D, sign):
    """Multiply (sign = +1) or divide (sign = -1) the pair series A, B in place
    by sum_j (fa[j] + fb[j] sqrt(D))/2 q^{jn}, whose constant term is 1."""
    N = len(A) - 1
    ks = range(N, n - 1, -1) if sign == 1 else range(n, N + 1)
    for k in ks:
        sa = sb = 0
        for j in range(1, min(len(fa) - 1, k // n) + 1):
            x, y = A[k - j * n], B[k - j * n]
            sa += fa[j] * x + D * fb[j] * y
            sb += fa[j] * y + fb[j] * x
        A[k] += sign * _halve(sa)
        B[k] += sign * _halve(sb)


def _expand_linear_product(exponents, D):
    """Coefficients (as model-ring lists) of prod_a (1 - x * zeta^a)."""
    coeffs = [[1] + [0] * (D - 1)]
    for a in exponents:
        coeffs.append([0] * D)
        # multiply by (1 - zeta^a x): new[i] = old[i] - zeta^a old[i-1]
        for i in range(len(coeffs) - 1, 0, -1):
            cur, prev = coeffs[i], coeffs[i - 1]
            for j in range(D):
                cur[(j + a) % D] -= prev[j]
    return coeffs


def trace_weights_by_moebius(D):
    """Tr(zeta_D^k) = mu(d) phi(D) / phi(d), d = D / gcd(k, D), for k in
    [0, D) and squarefree D: the Ramanujan sums by the classical formula,
    one value per divisor d."""
    phi = euler_phi(D)
    by_d = {}
    out = []
    for k in range(D):
        d = D // gcd(k, D)
        if d not in by_d:
            by_d[d] = moebius(d) * phi // euler_phi(d)
        out.append(by_d[d])
    return tuple(out)


@lru_cache(maxsize=None)
def period_polynomials_by_product(D):
    """(f_plus, f_minus) as tuples of RingElem: each product multiplied out in
    the model ring Z[x]/(x^D - 1) and every coefficient projected onto O_D."""
    chi = build_char_table(D)
    return tuple(
        tuple(project_to_quad(c, chi) for c in _expand_linear_product(residues(chi, sign), D))
        for sign in (1, -1)
    )


def eta_pairs_by_product(D, N):
    """a_D(0..N) as numerator pairs (A, B), a = (A + B sqrt(D))/2, from the
    product prod_{n<=N} (1-q^n)^{chi(n)} f_plus(q^n) / f_minus(q^n) with the
    reference period polynomials f_plus/f_minus, one factor at a time."""
    chi = build_char_table(D)
    f_plus, f_minus = period_polynomials_by_product(D)
    fpa = [c.num_a for c in f_plus]
    fpb = [c.num_b for c in f_plus]
    fma = [c.num_a for c in f_minus]
    fmb = [c.num_b for c in f_minus]
    A = [2] + [0] * N
    B = [0] * (N + 1)
    for n in range(1, N + 1):
        e = chi[n % D]
        if e == 1:
            for k in range(N, n - 1, -1):
                A[k] -= A[k - n]
                B[k] -= B[k - n]
        elif e == -1:
            for k in range(n, N + 1):
                A[k] += A[k - n]
                B[k] += B[k - n]
        _poly_step(A, B, fpa, fpb, n, D, 1)
        _poly_step(A, B, fma, fmb, n, D, -1)
    return list(zip(A, B))


def word_matrix_by_generators(ks, D):
    """T^{k_1} S T^{k_2} S ... S T^{k_l} as a plain product of 2x2 matrices
    over Z[sqrt(D)], entries (u, v) meaning u + v sqrt(D), with
    T^k = (1, k sqrt(D); 0, 1) and S = (0, -1; 1, 0)."""

    def mul(x, y):
        return (x[0] * y[0] + D * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def matmul(m, n):
        return tuple(
            tuple(
                tuple(p + q for p, q in zip(mul(m[i][0], n[0][j]), mul(m[i][1], n[1][j])))
                for j in range(2)
            )
            for i in range(2)
        )

    S = (((0, 0), (-1, 0)), ((1, 0), (0, 0)))
    m = None
    for k in ks:
        T = (((1, 0), (0, k)), ((0, 0), (1, 0)))
        m = T if m is None else matmul(matmul(m, S), T)
    return m


def log_eta_tail_direct(D, z, n_max):
    """log of the truncated product part of eta_D, one principal log per
    factor (1 - q^n)^chi(n) and (1 - zeta^a q^n)^chi(a), n <= n_max: the
    direct product that analytic.log_eta_tail sums in closed form past its
    split point."""
    chi = build_char_table(D)
    zetas = [cmath.exp(2j * math.pi * a / D) for a in range(D)]
    q = cmath.exp(2j * math.pi * z / math.sqrt(D))
    total = 0.0 + 0.0j
    qn = 1.0 + 0.0j
    for n in range(1, n_max + 1):
        qn *= q
        if abs(qn) < 1e-320:
            break
        e = chi[n % D]
        if e:
            total += e * cmath.log(1 - qn)
        for a in range(1, D):
            ea = chi[a]
            if ea:
                total += ea * cmath.log(1 - zetas[a] * qn)
    return total


def phi_sharp_direct(D, y, n_max, digits):
    """Phi#(i/y) truncated at n_max as the direct mpmath product
    prod_{n<=n_max} prod_a (1 - zeta^a q^n)^chi(a), q = exp(-2 pi/(y sqrt D)),
    at digits + 10 working digits."""
    chi = build_char_table(D)
    with mpmath.workdps(digits + 10):
        q = mpmath.exp(-2 * mpmath.pi / (y * mpmath.sqrt(D)))
        zetas = [mpmath.exp(2j * mpmath.pi * a / D) for a in range(D)]
        value = mpmath.mpc(1)
        qn = mpmath.mpf(1)
        for n in range(1, n_max + 1):
            qn *= q
            for a in range(1, D):
                if chi[a] == 1:
                    value *= 1 - zetas[a] * qn
                elif chi[a] == -1:
                    value /= 1 - zetas[a] * qn
        return value
