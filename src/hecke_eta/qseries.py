"""Truncated power series over O_D and the exact eta-analogue coefficients.

A QSeries carries coefficients a(0..N) in O_D plus an exact rational
valuation v, and stands for q^v * sum a(k) q^k in q = exp(2 pi i z/sqrt(D)).

The eta kernel never expands the product.  By the Gauss sum
sum_a chi(a) zeta^{ar} = chi(r) sqrt(D), the logarithmic derivative of
eta_D is the Lambert series sum_k b(k) q^k with

    b(k) = -(sum_{d|k} d chi(d) + sqrt(D) sum_{d|k} d chi(k/d)),

and the coefficients follow from the Euler-transform recurrence
k a(k) = sum_{j<=k} b(j) a(k-j), O(N^2) big-int products whatever D is.
The hot loop runs on plain numerator pairs rather than RingElem objects;
every division by k must be exact, so a wrong b(k), character value or
sign convention for sqrt(D) raises RingError instead of returning
coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .characters import build_char_table
from .lseries import l_minus_one
from .quad_ring import RingElem, RingCtx, RingError, ring_ctx

# Largest order the CLI accepts, from the measured cost of the O(N^2)
# recurrence: `hecke-eta coeffs --D 5 --N 14000` took 55 s end to end
# (12000: 41 s, 15000: 62 s) on a 2-vCPU x86-64 machine with Python 3.11.
# At N = 14000 `growth --D 5` took 54 s and `delta5` 66 s (larger numbers).
MAX_ORDER = 14_000


class SeriesError(ValueError):
    """Incompatible operands or non-invertible series."""


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
    def one(cls, ctx: RingCtx, prec: int) -> "QSeries":
        coeffs = [RingElem.from_int(1, ctx)] + [
            RingElem.from_int(0, ctx) for _ in range(prec)
        ]
        return cls(ctx, coeffs)

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
    """Truncated product of two numerator-pair series over denominator 2."""
    A = [0] * (N + 1)
    B = [0] * (N + 1)
    for i in range(N + 1):
        a1 = A1[i]
        b1 = B1[i]
        if a1 == 0 and b1 == 0:
            continue
        for j in range(N + 1 - i):
            a2 = A2[j]
            b2 = B2[j]
            if a2 == 0 and b2 == 0:
                continue
            A[i + j] += a1 * a2 + D * b1 * b2
            B[i + j] += a1 * b2 + b1 * a2
    return [_halve(a) for a in A], [_halve(b) for b in B]


def _inv_pairs(A1, B1, D: int, N: int) -> tuple[list[int], list[int]]:
    """Inverse of a pair series whose constant term is +1 or -1."""
    if (A1[0], B1[0]) == (2, 0):
        s = 1
    elif (A1[0], B1[0]) == (-2, 0):
        s = -1
    else:
        raise SeriesError("series_inv needs constant term +1 or -1")
    A = [0] * (N + 1)
    B = [0] * (N + 1)
    A[0] = 2 * s
    for k in range(1, N + 1):
        sa = 0
        sb = 0
        for i in range(1, k + 1):
            a1, b1 = A1[i], B1[i]
            if a1 == 0 and b1 == 0:
                continue
            a2, b2 = A[k - i], B[k - i]
            sa += a1 * a2 + D * b1 * b2
            sb += a1 * b2 + b1 * a2
        # b_k = -s * sum, with the sum carrying denominator 4 = 2*2
        A[k] = -s * _halve(sa)
        B[k] = -s * _halve(sb)
    return A, B


def series_mul(f: QSeries, g: QSeries) -> QSeries:
    """Exact truncated product; valuations add."""
    _check_compat(f, g)
    A1, B1 = f._pairs()
    A2, B2 = g._pairs()
    A, B = _mul_pairs(A1, B1, A2, B2, f.ctx.D, f.prec)
    return QSeries._from_pairs(f.ctx, A, B, f.valuation + g.valuation)


def series_inv(f: QSeries) -> QSeries:
    """Exact truncated inverse; requires constant term +1 or -1."""
    A1, B1 = f._pairs()
    A, B = _inv_pairs(A1, B1, f.ctx.D, f.prec)
    return QSeries._from_pairs(f.ctx, A, B, -f.valuation)


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


def sparse_binomial_apply(f: QSeries, n: int, e: int) -> QSeries:
    """Multiply (e = +1) or divide (e = -1) by (1 - q^n) in O(prec) steps."""
    if not 1 <= n <= f.prec:
        raise SeriesError(f"gap n={n} out of range 1..{f.prec}")
    if e not in (1, -1):
        raise SeriesError("exponent must be +1 or -1")
    A, B = f._pairs()
    _binomial_inplace(A, B, n, e)
    return QSeries._from_pairs(f.ctx, A, B, f.valuation)


def _binomial_inplace(A, B, n: int, e: int) -> None:
    N = len(A) - 1
    if e == 1:
        for k in range(N, n - 1, -1):
            A[k] -= A[k - n]
            B[k] -= B[k - n]
    else:
        for k in range(n, N + 1):
            A[k] += A[k - n]
            B[k] += B[k - n]


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


def _eta_power(D: int, N: int, r: int) -> QSeries:
    """eta_D**r to order N by the Euler-transform recurrence.

    With b(k) = -r (s1(k) + s2(k) sqrt(D)) and a(k) = (A_k + B_k sqrt(D))/2,
    k a(k) = sum_{j<=k} b(j) a(k-j) reads

        k A_k = -r sum_j (s1(j) A_{k-j} + D s2(j) B_{k-j}),
        k B_k = -r sum_j (s1(j) B_{k-j} + s2(j) A_{k-j}).

    Each division by k must leave no remainder; one that does means a wrong
    b(k) or character value, and raises RingError.
    """
    if N < 1:
        raise SeriesError("order must be >= 1")
    if N > MAX_ORDER:
        raise SeriesError(f"order {N} exceeds capacity limit {MAX_ORDER}")
    ct = build_char_table(D)
    s1, s2 = _divisor_sums(ct.values, D, N)
    s1 = [-r * x for x in s1]
    s2 = [-r * x for x in s2]
    ds2 = [D * x for x in s2]
    A = [2]
    B = [0]
    for k in range(1, N + 1):
        ta, ra = divmod(
            sum(map(mul, s1, reversed(A))) + sum(map(mul, ds2, reversed(B))), k
        )
        tb, rb = divmod(
            sum(map(mul, s1, reversed(B))) + sum(map(mul, s2, reversed(A))), k
        )
        if ra or rb:
            raise RingError(f"inexact division by {k} in the eta recurrence")
        A.append(ta)
        B.append(tb)
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
