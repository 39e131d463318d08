"""Truncated power series over O_D and the exact eta-analogue coefficients.

A QSeries carries coefficients a(0..N) in O_D plus an exact rational
valuation v, and stands for q^v * sum a(k) q^k in q = exp(2 pi i z/sqrt(D)).

The eta kernel never expands the product.  By the Gauss sum
sum_a chi(a) zeta^{ar} = chi(r) sqrt(D), the logarithmic derivative of
eta_D is the Lambert series sum_k b(k) q^k with

    b(k) = -(sum_{d|k} d chi(d) + sqrt(D) sum_{d|k} d chi(k/d)),

and the coefficients follow from the Euler-transform recurrence
k a(k) = sum_{j<=k} b(j) a(k-j), whatever D is.  euler_transform evaluates
it online, divide and conquer: a block of known a(i) reaches all later sums
through one Kronecker-substituted integer product (_pair_product), so the
cost is O(log N) levels of Karatsuba products instead of O(N^2) scalar
ones; blocks of coefficients too wide for that to pay use dot products.
It runs on plain numerator pairs, not RingElem objects, and also expands
the period polynomials; every division by k must be exact, so a wrong
b(k), character value or sign convention for sqrt(D) raises RingError
instead of returning coefficients.  The Kronecker slot format has one owner
here: _bound_bytes sizes the slots of both the pair product and _convolve,
the plain packed product that the convolution oracle multiplies with.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .characters import build_char_table
from .lseries import l_minus_one
from .quad_ring import RingElem, RingError

# Largest order the CLI accepts, from the measured cost of its most expensive
# order-capped command, `hecke-eta delta5` (tau_5 has larger coefficients
# than a_D), end to end on a 2-vCPU x86-64 machine with Python 3.11: 24 s at
# N = 12000, 44 s at 16000, 54 s at 17000, 58 s at 18000 and 71 s at 20000,
# with a peak RSS of 48 MB at 16000; `coeffs --D 5 --N 17000` took 18 s.
MAX_ORDER = 16_000


class SeriesError(ValueError):
    """A non-positive exponent or an order out of range."""


class QSeries:
    """Truncated series over O_D with rational valuation metadata.

    Built from numerator pairs: coefficient k is (A[k] + B[k] sqrt(D))/2.
    The coefficients are exposed as a tuple of RingElem.
    """

    __slots__ = ("D", "prec", "coeffs", "valuation")

    def __init__(self, D: int, A, B, valuation=Fraction(0)):
        self.D = D
        self.coeffs = tuple([RingElem(a, b, D) for a, b in zip(A, B, strict=True)])
        self.prec = len(self.coeffs) - 1
        self.valuation = Fraction(valuation)

    def __eq__(self, other):
        return (
            isinstance(other, QSeries)
            and self.D == other.D
            and self.valuation == other.valuation
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:4])
        return (
            f"QSeries(D={self.D}, v={self.valuation}, prec={self.prec}, "
            f"[{head}, ...])"
        )


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


def _convolve(u, v, terms: int, hi: int) -> list[int]:
    """Slots 0..hi-1 of the linear product of the nonempty integer sequences
    u and v, no slot of which sums more than `terms` products u_i v_j: pack,
    one integer product, unpack."""
    wb = _bound_bytes(terms, _max_abs(u), _max_abs(v))
    return _unpack(_pack(u, wb) * _pack(v, wb), wb, 0, hi)


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
    D, N, valuation = f.D, f.prec, k * f.valuation
    base = [c.num_a for c in f.coeffs], [c.num_b for c in f.coeffs]
    result = None
    while k:
        if k & 1:
            result = base if result is None else _mul_pairs(*result, *base, D, N)
        k >>= 1
        if k:
            base = _mul_pairs(*base, *base, D, N)
    return QSeries(D, *result, valuation)


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

    The sums are accumulated online, divide and conquer: once a(l..m-1) are
    known, their whole contribution to the sums of k in [m, r) is added in
    one block step (_block), so the cost is that of O(log N) levels of
    polynomial products instead of O(N^2) scalar ones.
    """
    P = list(P[:N]) + [0] * (N - len(P))
    Q = list(Q[:N]) + [0] * (N - len(Q))
    A = [2] + [0] * N
    B = [0] * (N + 1)
    X = [0] * (N + 1)
    Y = [0] * (N + 1)
    _solve(P, Q, [D * x for x in Q], D, A, B, X, Y, 0, N + 1)
    return A, B


# Ranges of at most this many orders run the plain recurrence.
_LEAF = 48


def _solve(P, Q, DQ, D, A, B, X, Y, l: int, r: int) -> None:
    """Fill A, B on [l, r), given that X[k], Y[k] for k in [l, r) already
    hold the contributions of every a(i) with i < l."""
    if r - l <= _LEAF:
        _leaf(P, Q, DQ, A, B, X, Y, l, r)
        return
    m = (l + r) // 2
    _solve(P, Q, DQ, D, A, B, X, Y, l, m)
    _block(P, Q, DQ, D, A, B, X, Y, l, m, r)
    _solve(P, Q, DQ, D, A, B, X, Y, m, r)


def _leaf(P, Q, DQ, A, B, X, Y, l: int, r: int) -> None:
    """The plain recurrence on [l, r), starting from the sums in X, Y."""
    for k in range(max(l, 1), r):
        ra = A[l:k]
        rb = B[l:k]
        ra.reverse()
        rb.reverse()
        ta, rem_a = divmod(
            X[k] + sum(map(mul, P, ra)) + sum(map(mul, DQ, rb)), 2 * k
        )
        tb, rem_b = divmod(
            Y[k] + sum(map(mul, P, rb)) + sum(map(mul, Q, ra)), 2 * k
        )
        if rem_a or rem_b:
            raise RingError(f"inexact division by {k} in euler_transform")
        A[k] = ta
        B[k] = tb


def _block(P, Q, DQ, D, A, B, X, Y, l: int, m: int, r: int) -> None:
    """Add the contribution of a(l..m-1) to X[k], Y[k] for k in [m, r).

    That is the middle of the product of a(l..m-1) with b(1..r-l-1): by
    Kronecker substitution when the block is long enough for its slot
    width (_kronecker_pays), else by one dot product per k.
    """
    a = A[l:m]
    b = B[l:m]
    p = P[: r - l - 1]
    q = Q[: r - l - 1]
    wb = _slot_bytes(p, q, a, b, D)
    if _kronecker_pays(m - l, wb):
        xs, ys = _pair_product(p, q, a, b, D, m - l - 1, r - l - 1, wb)
        for k, x, y in zip(range(m, r), xs, ys):
            X[k] += x
            Y[k] += y
        return
    a.reverse()
    b.reverse()
    for k in range(m, r):
        pk = P[k - m : k - l]
        X[k] += sum(map(mul, pk, a)) + sum(map(mul, DQ[k - m : k - l], b))
        Y[k] += sum(map(mul, pk, b)) + sum(map(mul, Q[k - m : k - l], a))


def _kronecker_pays(n: int, wb: int) -> bool:
    """Whether a block of n known orders with slots of wb bytes is faster by
    Kronecker substitution than by dot products.

    A dot product multiplies the narrow b(j) into each wide a(i) in linear
    time, while the integer product pads b(j) out to the slot and pays
    Karatsuba on the whole width, so the crossover grows with the width.
    Measured on random blocks (b of 14 bits, 2-vCPU x86-64, Python 3.11):
    Kronecker is faster from n = 8 at wb = 11, 10 at 19, 19 at 27, 23 at 35,
    135 at 52, 260 at 68, 500 at 100 and 1050 at 132.  n >= wb^2 / 18 fits
    the wide end and gives up at most 1.5x near the narrow crossovers; over
    whole transforms it beat wb^2 / 9 and wb^2 / 36 (eta_5^5 at N = 4000:
    1.63 s against 1.76 s and 1.84 s).
    """
    return n >= max(8, wb * wb / 18)


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
    return QSeries(D, A, B, r * m)


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
