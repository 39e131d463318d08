"""Truncated power series over O_D and the exact eta-analogue coefficients.

A QSeries is a plain tuple (D, coeffs, valuation_pair) that stands for
q^v * sum a(k) q^k in q = exp(2 pi i z/sqrt(D)): coefficients a(0..N) in
O_D and an exact rational valuation v, held as an integer pair and read as
a Fraction (the valuation property), which loads `fractions` only when it
is read.  eta_series gives a_D, and tau5_values the coefficients tau_5 of
eta_5**5.

The eta kernel never expands the product.  By the Gauss sum
sum_a chi(a) zeta^{ar} = chi(r) sqrt(D), the logarithmic derivative of
eta_D is the Lambert series sum_k b(k) q^k with

    b(k) = -(sum_{d|k} d chi(d) + sqrt(D) sum_{d|k} d chi(k/d)),

and the coefficients follow from the Euler-transform recurrence
k a(k) = sum_{j<=k} b(j) a(k-j), whatever D is.  euler_transform evaluates
it online, divide and conquer: a block of known a(i) reaches all later sums
through one Kronecker-substituted integer product (_block), so the cost is
O(log N) levels of Karatsuba products instead of O(N^2) scalar ones, and
the plain recurrence (_leaf) finishes every order no block product reaches.
It runs on plain numerator pairs, not RingElem objects, and also expands
the period polynomials; every division by k must be exact, so a wrong
b(k), character value or sign convention for sqrt(D) raises RingError
instead of returning coefficients.  The Kronecker slot format has one owner
here (_bound_bytes, _pack, _unpack) and _pair_product is its one packed
product; the oracle and the period-polynomial norm check pack with it too.
"""

from collections import namedtuple
from math import gcd
from operator import mul

from .characters import TABLE_S_PER_D, build_char_table
from .lseries import m_exponent
from .quad_ring import RingElem, RingError

class SeriesError(ValueError):
    """A non-positive exponent or order."""


class QSeries(namedtuple("QSeries", "D coeffs valuation_pair")):
    """q^valuation * sum coeffs[k] q^k: coeffs a tuple of RingElem, the
    valuation held as a pair (numerator, denominator) in lowest terms and
    read as a Fraction."""

    __slots__ = ()

    @property
    def valuation(self) -> "fractions.Fraction":
        from fractions import Fraction

        return Fraction(*self.valuation_pair)


def _series(D: int, A, B, valuation_pair) -> QSeries:
    """The QSeries whose coefficient k is (A[k] + B[k] sqrt(D))/2."""
    return QSeries(D, tuple([RingElem(a, b, D) for a, b in zip(A, B, strict=True)]), valuation_pair)


def _times(r: int, pair: tuple[int, int]) -> tuple[int, int]:
    """r times the rational (numerator, denominator), in lowest terms."""
    num, den = r * pair[0], pair[1]
    g = gcd(num, den)
    return num // g, den // g


def _halve(n: int) -> int:
    q, r = divmod(n, 2)
    if r:
        raise RingError("internal corruption: odd numerator after convolution")
    return q


def _bound_bytes(*bounds: int) -> int:
    """Byte width of a Kronecker slot that holds every integer of magnitude
    at most the product of the nonnegative bounds: that product is below
    2^(w-1) when w covers their bit lengths plus a sign bit."""
    return (sum(b.bit_length() for b in bounds) + 8) // 8


def _max_abs(*seqs) -> int:
    return max(max(max(s), -min(s)) for s in seqs)


def _slot_bytes(P, Q, A, B, D: int) -> int:
    """Byte width of a Kronecker slot that holds every coefficient of
    X = P A + D Q B and Y = P B + Q A, for nonempty P, Q of one length and
    A, B of one length.

    A coefficient sums at most n = min(len P, len A) products, so
    |X_k| <= n max|P,Q| max|A,B| (1 + D) and |Y_k| <= 2 n max|P,Q| max|A,B|.
    """
    return _bound_bytes(min(len(P), len(A)), _max_abs(P, Q), _max_abs(A, B), D + 1)


def _bias(wb: int, n: int) -> int:
    """2^(8 wb - 1) in each of n slots of wb bytes."""
    return int.from_bytes((bytes(wb - 1) + b"\x80") * n, "little")


def _pack(seq, wb: int) -> int:
    """sum_i seq[i] 2^(8 wb i): every slot is biased by 2^(8 wb - 1) on the
    way into bytes, and the bias is subtracted again as one integer."""
    half = 1 << (8 * wb - 1)
    biased = b"".join([(c + half).to_bytes(wb, "little") for c in seq])
    return int.from_bytes(biased, "little") - _bias(wb, len(seq))


def _unpack(z: int, wb: int, lo: int, hi: int) -> list[int]:
    """Slots lo..hi-1 of z = sum_k c_k 2^(8 wb k), |c_k| < 2^(8 wb - 1).

    Adding the bias lifts every slot into [0, 2^(8 wb)), so no borrow
    crosses a slot boundary; slots from hi up are cut off by the mask.
    """
    half = 1 << (8 * wb - 1)
    data = ((z + _bias(wb, hi)) & ((1 << (8 * wb * hi)) - 1)).to_bytes(wb * hi, "little")
    return [
        int.from_bytes(data[i : i + wb], "little") - half
        for i in range(wb * lo, wb * hi, wb)
    ]


def _pair_product(P, Q, A, B, D: int, lo: int, hi: int, wb: int):
    """Coefficients lo..hi-1 of X = P A + D Q B and Y = P B + Q A, the
    numerator-pair product (P + Q sqrt(D))(A + B sqrt(D)) before halving.

    Kronecker substitution with slots of wb bytes (from _slot_bytes): each
    operand becomes one integer, and three integer products PA, QB and
    (P + Q)(A + B) give both X and Y.  The packed operands are dropped once
    their sums are formed, and PA, QB once X and PA + QB are, so that only
    the two sums and PA + QB are held next to the last product.
    """
    pP, pQ, pA, pB = (_pack(s, wb) for s in (P, Q, A, B))
    pa = pP * pA
    qb = pQ * pB
    pP += pQ
    pA += pB
    del pQ, pB
    X = _unpack(pa + D * qb, wb, lo, hi)
    pa += qb
    del qb
    return X, _unpack(pP * pA - pa, wb, lo, hi)


def _mul_pairs(A1, B1, A2, B2, D: int, N: int) -> tuple[list[int], list[int]]:
    """Truncated product of two numerator-pair series (denominator 2); a
    shorter operand reads as zero-padded."""
    A1, B1, A2, B2 = A1[: N + 1], B1[: N + 1], A2[: N + 1], B2[: N + 1]
    if not A1 or not A2:
        return [0] * (N + 1), [0] * (N + 1)
    A, B = _pair_product(A1, B1, A2, B2, D, 0, N + 1, _slot_bytes(A1, B1, A2, B2, D))
    return [_halve(a) for a in A], [_halve(b) for b in B]


def series_pow(f: QSeries, k: int) -> QSeries:
    """f**k for positive integer k, by binary powering on numerator pairs;
    the valuation is k times f's."""
    if k < 1:
        raise SeriesError("series_pow needs a positive integer exponent")
    D, N, valuation_pair = f.D, len(f.coeffs) - 1, _times(k, f.valuation_pair)
    base = [c.num_a for c in f.coeffs], [c.num_b for c in f.coeffs]
    result = None
    while k:
        if k & 1:
            result = base if result is None else _mul_pairs(*result, *base, D, N)
        k >>= 1
        if k:
            base = _mul_pairs(*base, *base, D, N)
    return _series(D, *result, valuation_pair)


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

    The sums are accumulated online, divide and conquer, in A[k] and B[k]
    themselves until a(k) replaces them: once a(l..m-1) are known, their
    whole contribution to the sums of k in [m, r) is added in one block step
    (_block), so the cost is that of O(log N) levels of polynomial products
    instead of O(N^2) scalar ones.  P and Q have length N.
    """
    A = [2] + [0] * N
    B = [0] * (N + 1)
    _solve(P, Q, D, A, B, 0, N + 1)
    return A, B


# Ranges of at most this many orders run the plain recurrence.
_LEAF = 48


def _solve(P, Q, D, A, B, l: int, r: int) -> None:
    """Solve a(k) for k in [l, r), given that A[k], B[k] for k in [l, r)
    already hold the sums over every a(i) with i < l."""
    if r - l <= _LEAF:
        _leaf(P, Q, D, A, B, l, l, r)
        return
    m = (l + r) // 2
    _solve(P, Q, D, A, B, l, m)
    if _block(P, Q, D, A, B, l, m, r):
        _solve(P, Q, D, A, B, m, r)
    else:
        _leaf(P, Q, D, A, B, l, m, r)


def _leaf(P, Q, D, A, B, l: int, m: int, r: int) -> None:
    """The plain recurrence on [m, r): the sums in A[k], B[k] over i < l, plus
    a(l..k-1) summed from a(l) up, so that each sum widens with its terms."""
    for k in range(max(m, 1), r):
        p = P[: k - l][::-1]
        q = Q[: k - l][::-1]
        a = A[l:k]
        b = B[l:k]
        ta, rem_a = divmod(A[k] + sum(map(mul, p, a)) + D * sum(map(mul, q, b)), 2 * k)
        tb, rem_b = divmod(B[k] + sum(map(mul, p, b)) + sum(map(mul, q, a)), 2 * k)
        if rem_a or rem_b:
            raise RingError(f"inexact division by {k} in euler_transform")
        A[k] = ta
        B[k] = tb


def _block(P, Q, D, A, B, l: int, m: int, r: int) -> bool:
    """Add the contribution of a(l..m-1) to the sums A[k], B[k], k in [m, r):
    the middle of the product of a(l..m-1) with b(1..r-l-1), by one
    Kronecker-substituted product.  Return False instead, changing nothing,
    where the block is too short for its slot width (_kronecker_pays)."""
    a = A[l:m]
    b = B[l:m]
    p = P[: r - l - 1]
    q = Q[: r - l - 1]
    wb = _slot_bytes(p, q, a, b, D)
    if not _kronecker_pays(m - l, wb):
        return False
    xs, ys = _pair_product(p, q, a, b, D, m - l - 1, r - l - 1, wb)
    for k, x, y in zip(range(m, r), xs, ys):
        A[k] += x
        B[k] += y
    return True


def _kronecker_pays(n: int, wb: int) -> bool:
    """Whether a block of n known orders with slots of wb bytes is faster by
    Kronecker substitution than the plain recurrence on the right half.

    A dot product multiplies the narrow b(j) into each wide a(i) in linear
    time, while the integer product pads b(j) out to the slot and pays
    Karatsuba on the whole width, so the crossover grows with the width.
    Measured against dot products on random blocks (b of 14 bits, 2-vCPU
    x86-64, Python 3.11): Kronecker is faster from n = 8 at wb = 11, 10 at
    19, 19 at 27, 23 at 35, 135 at 52, 260 at 68, 500 at 100 and 1050 at
    132.  n >= wb^2 / 18 fits the wide end and gives up at most 1.5x near
    the narrow crossovers; over whole transforms it beat wb^2 / 9 and
    wb^2 / 36 (eta_5^5 at N = 4000, medians of 15 interleaved runs: 1.30 s
    against 1.48 s and 1.40 s).
    """
    return n >= wb * wb / 18


def _eta_power(D: int, N: int, r: int) -> QSeries:
    """eta_D**r to order N, the Euler transform of b = -r (s1 + s2 sqrt(D)).

    Every P = -2r s1 and Q = -2r s2 is even, so the division by 2k in
    euler_transform is exact exactly when k divides the sums.
    """
    if N < 1:
        raise SeriesError("order must be >= 1")
    chi = build_char_table(D)
    s1, s2 = _divisor_sums(chi, D, N)
    for s in (s1, s2):
        for i in range(N):
            s[i] *= -2 * r
    A, B = euler_transform(s1, s2, D, N)
    return _series(D, A, B, _times(r, m_exponent(chi)))


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


def tau5_values(n_max: int) -> dict[int, RingElem]:
    """tau_5(1..n_max) as a dict keyed by the q-exponent N: eta_5**5 has
    valuation 1, so its coefficient k, by the recurrence of eta_series with
    b scaled by 5, is tau_5(k+1)."""
    if n_max < 1:
        raise SeriesError("need n_max >= 1")
    coeffs = _eta_power(5, max(n_max - 1, 1), 5).coeffs
    return {n: coeffs[n - 1] for n in range(1, n_max + 1)}


def kernel_s(D: int, N: int) -> float:
    """Predicted seconds of `coeffs --D D --N N`: the O(D) character table,
    and the kernel on coefficients whose width grows with N and, up to D of
    about 10^5, with D.  It bounds 23 runs of `coeffs`, D 5..3999997,
    N 1..17000, up to 67 s, by up to 1.9x."""
    return TABLE_S_PER_D * D + 1.45e-9 * N**2.4 * min(D, 100_000) ** 0.3
