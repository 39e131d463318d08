"""Truncated power series over O_D and the exact eta-analogue coefficients.

A QSeries carries coefficients a(0..N) in O_D plus an exact rational
valuation v, and stands for q^v * sum a(k) q^k in q = exp(2 pi i z/sqrt(D)).

The eta kernel never expands the product.  By the Gauss sum
sum_a chi(a) zeta^{ar} = chi(r) sqrt(D), the logarithmic derivative of
eta_D is the Lambert series sum_k b(k) q^k with

    b(k) = -(sum_{d|k} d chi(d) + sqrt(D) sum_{d|k} d chi(k/d)),

and the coefficients follow from the Euler-transform recurrence
k a(k) = sum_{j<=k} b(j) a(k-j), O(N^2) big-int products whatever D is.
The loop, euler_transform, runs on plain numerator pairs, not RingElem
objects, and also expands the period polynomials; every division by k
must be exact, so a wrong b(k), character value or sign convention for
sqrt(D) raises RingError instead of returning coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .characters import build_char_table
from .lseries import l_minus_one
from .quad_ring import RingElem, RingCtx, RingError, ring_ctx

# Largest order the CLI accepts, from the measured cost of the O(N^2)
# recurrence for its most expensive command, `hecke-eta delta5` (tau_5 has
# larger coefficients than a_D): it took 53 s end to end at N = 12000, 60 s
# at 13000 and 72 s at 14000 on a 2-vCPU x86-64 machine with Python 3.11,
# where `coeffs --D 5 --N 13000` took 48 s.
MAX_ORDER = 12_000


class SeriesError(ValueError):
    """Incompatible operands or an order out of range."""


class QSeries:
    """Truncated series over O_D with rational valuation metadata."""

    __slots__ = ("ctx", "prec", "coeffs", "valuation")

    def __init__(self, ctx: RingCtx, coeffs, valuation=Fraction(0)):
        self.ctx = ctx
        self.coeffs = tuple(coeffs)
        self.prec = len(self.coeffs) - 1
        self.valuation = Fraction(valuation)
        for c in self.coeffs:
            if c.ctx.D != ctx.D:
                raise RingError("coefficient context mismatch")

    @classmethod
    def _from_pairs(cls, ctx: RingCtx, A, B, valuation=Fraction(0)) -> "QSeries":
        return cls(
            ctx,
            [RingElem(a, b, ctx) for a, b in zip(A, B)],
            valuation,
        )

    def _pairs(self) -> tuple[list[int], list[int]]:
        return [c.num_a for c in self.coeffs], [c.num_b for c in self.coeffs]

    def __eq__(self, other):
        return (
            isinstance(other, QSeries)
            and self.ctx.D == other.ctx.D
            and self.valuation == other.valuation
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:4])
        return (
            f"QSeries(D={self.ctx.D}, v={self.valuation}, prec={self.prec}, "
            f"[{head}, ...])"
        )


def _check_compat(f: QSeries, g: QSeries) -> None:
    if f.ctx.D != g.ctx.D:
        raise SeriesError(f"context mismatch: D={f.ctx.D} vs D={g.ctx.D}")
    if f.prec != g.prec:
        raise SeriesError(f"precision mismatch: {f.prec} vs {g.prec}")


def _halve(n: int) -> int:
    q, r = divmod(n, 2)
    if r:
        raise RingError("internal corruption: odd numerator after convolution")
    return q


def _mul_pairs(A1, B1, A2, B2, D: int, N: int) -> tuple[list[int], list[int]]:
    """Truncated product of two numerator-pair series (denominator 2); a
    shorter operand reads as zero-padded."""
    A = [0] * (N + 1)
    B = [0] * (N + 1)
    for i in range(min(N + 1, len(A1))):
        a1 = A1[i]
        b1 = B1[i]
        if a1 == 0 and b1 == 0:
            continue
        for j in range(min(N + 1 - i, len(A2))):
            a2 = A2[j]
            b2 = B2[j]
            if a2 == 0 and b2 == 0:
                continue
            A[i + j] += a1 * a2 + D * b1 * b2
            B[i + j] += a1 * b2 + b1 * a2
    return [_halve(a) for a in A], [_halve(b) for b in B]


def series_mul(f: QSeries, g: QSeries) -> QSeries:
    """Exact truncated product; valuations add."""
    _check_compat(f, g)
    A1, B1 = f._pairs()
    A2, B2 = g._pairs()
    A, B = _mul_pairs(A1, B1, A2, B2, f.ctx.D, f.prec)
    return QSeries._from_pairs(f.ctx, A, B, f.valuation + g.valuation)


def series_pow(f: QSeries, k: int) -> QSeries:
    """f**k for positive integer k, by binary powering."""
    if k < 1:
        raise SeriesError("series_pow needs a positive integer exponent")
    result = None
    base = f
    while k:
        if k & 1:
            result = base if result is None else series_mul(result, base)
        k >>= 1
        if k:
            base = series_mul(base, base)
    return result


def _divisor_sums(chi, D: int, N: int) -> tuple[list[int], list[int]]:
    """s1(k) = sum_{d|k} d chi(d) and s2(k) = sum_{d|k} d chi(k/d), k = 1..N.

    Index 0 of both lists holds s(1); the sieve costs O(N log N).
    """
    s1 = [0] * N
    s2 = [0] * N
    for d in range(1, N + 1):
        c = chi[d % D]
        if c:
            for e in range(1, N // d + 1):
                s1[d * e - 1] += c * d
                s2[d * e - 1] += c * e
    return s1, s2


def euler_transform(P, Q, D: int, N: int) -> tuple[list[int], list[int]]:
    """Numerator pairs (A, B) of exp(sum_j b(j) x^j / j) to order N.

    With b(j) = (P[j-1] + Q[j-1] sqrt(D))/2 and a(k) = (A_k + B_k sqrt(D))/2,
    a(0) = 1, the identity k a(k) = sum_{j<=k} b(j) a(k-j) reads
    2k A_k = sum_j (P_j A_{k-j} + D Q_j B_{k-j}) and
    2k B_k = sum_j (P_j B_{k-j} + Q_j A_{k-j}).  This is the library's only
    product expander: eta_D**r and the period polynomials both reach it
    through their power sums.  A division by 2k that leaves a remainder
    means a wrong b(j), character value or sign convention for sqrt(D), and
    raises RingError.
    """
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
        if ra or rb:
            raise RingError(f"inexact division by {k} in euler_transform")
        A.append(ta)
        B.append(tb)
    return A, B


def _eta_power(D: int, N: int, r: int) -> QSeries:
    """eta_D**r to order N, the Euler transform of b = -r (s1 + s2 sqrt(D)).

    Every P = -2r s1 and Q = -2r s2 is even, so the division by 2k in
    euler_transform is exact exactly when k divides the sums.
    """
    if N < 1:
        raise SeriesError("order must be >= 1")
    if N > MAX_ORDER:
        raise SeriesError(f"order {N} exceeds capacity limit {MAX_ORDER}")
    ct = build_char_table(D)
    s1, s2 = _divisor_sums(ct.values, D, N)
    A, B = euler_transform([-2 * r * x for x in s1], [-2 * r * x for x in s2], D, N)
    m = l_minus_one(ct).m_exponent
    return QSeries._from_pairs(ring_ctx(D), A, B, r * m)


def eta_series(D: int, N: int) -> QSeries:
    """Coefficients a_D(0..N) of the eta analogue for H(sqrt(D)).

    eta_D = q^m prod_n (1-q^n)^{chi(n)} prod_a (1-zeta^a q^n)^{chi(a)}.  The
    Gauss sum sum_a chi(a) zeta^{ar} = chi(r) sqrt(D) turns its logarithmic
    derivative q d/dq log into the Lambert series sum_k b(k) q^k with
    b(k) = -(sum_{d|k} d chi(d) + sqrt(D) sum_{d|k} d chi(k/d)), so the
    coefficients follow from k a(k) = sum_{j<=k} b(j) a(k-j) (the identity
    behind n p(n) = sum sigma(j) p(n-j)), with no period polynomials and
    a cost independent of D.  Valuation metadata m = -L(-1, chi_D)/2.
    """
    return _eta_power(D, N, 1)


def delta5_series(N: int) -> QSeries:
    """eta_5**5 by the same recurrence with b scaled by 5: valuation 1,
    coefficient k is tau_5(k+1)."""
    return _eta_power(5, N, 5)


def tau5_values(n_max: int) -> dict[int, RingElem]:
    """tau_5(1..n_max) as a dict keyed by the q-exponent N."""
    if n_max < 1:
        raise SeriesError("need n_max >= 1")
    ds = delta5_series(n_max - 1) if n_max > 1 else delta5_series(1)
    return {n: ds.coeffs[n - 1] for n in range(1, n_max + 1)}
