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
instead of returning coefficients.  The Kronecker slot format is private
here, and one slot bound, _norm_bytes, narrowed by _conv_bytes to the sums
kept, sizes every packed product: the kernel's, the oracle's two, which call
no kernel function (_mul_rows, _times_int_series), and the norm identity of
the period polynomials (_is_norm).
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


def _bound_bytes(bound: int) -> int:
    """Byte width of a Kronecker slot that holds every integer of magnitude
    at most bound >= 0: its bit length plus a sign bit."""
    return (bound.bit_length() + 8) // 8


def _norm_bytes(x, y) -> int:
    """Byte width of a Kronecker slot that holds every x_i, y_j and
    sum_{i+j=k} x_i y_j, for nonempty x, y of nonnegative ints: each such sum
    is at most max(x) sum(y) and sum(x) max(y)."""
    mx, my = max(x), max(y)
    return _bound_bytes(max(min(mx * sum(y), sum(x) * my), mx, my))


def _conv_bytes(x, y, rows: int) -> int:
    """Byte width of a Kronecker slot that holds every x_i, y_j and
    sum_{i+j=k} x_i y_j, k < rows, for nonempty x, y of nonnegative ints:
    the sums are the slots of one Kronecker product, sized by _norm_bytes."""
    wb = _norm_bytes(x, y)
    return _bound_bytes(max(*_unpack(_pack(x, wb) * _pack(y, wb), wb, 0, rows), *x, *y))


def _pair_norms(P, Q, A, B, D: int) -> tuple[list[int], list[int]]:
    """x_j = |P_j| + D |Q_j| and y_i = |A_i| + |B_i|, which bound the operands
    and every coefficient of P A +- D Q B and P B + Q A by sum_{i+j=k} x_j y_i."""
    return [abs(p) + D * abs(q) for p, q in zip(P, Q)], [abs(a) + abs(b) for a, b in zip(A, B)]


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
    """Slots lo..hi-1 of z = sum_k c_k 2^(8 wb k), |c_k| < 2^(8 wb - 1), read
    with every slot lifted by the bias, so that no borrow crosses a slot."""
    return _read_biased(z + _bias(wb, hi), wb, lo, hi)


def _read_biased(z: int, wb: int, lo: int, hi: int) -> list[int]:
    """Slots lo..hi-1 of z, each held biased by 2^(8 wb - 1) in [0, 2^(8 wb)),
    less the bias; slots from hi up are cut off by the mask."""
    half = 1 << (8 * wb - 1)
    data = (z & ((1 << (8 * wb * hi)) - 1)).to_bytes(wb * hi, "little")
    return [
        int.from_bytes(data[i : i + wb], "little") - half
        for i in range(wb * lo, wb * hi, wb)
    ]


def _pair_product(P, Q, A, B, D: int, lo: int, hi: int, wb: int):
    """Coefficients lo..hi-1 of X = P A + D Q B and Y = P B + Q A, the
    numerator-pair product (P + Q sqrt(D))(A + B sqrt(D)) before halving.

    Kronecker substitution with slots of wb bytes (by _pair_norms): each
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
    shorter operand reads as zero-padded.  Slots past N, the largest sum of
    _pair_norms that _conv_bytes sizes for, only carry upward, out of the
    slots _unpack keeps."""
    A1, B1, A2, B2 = A1[: N + 1], B1[: N + 1], A2[: N + 1], B2[: N + 1]
    if not A1 or not A2:
        return [0] * (N + 1), [0] * (N + 1)
    wb = _conv_bytes(*_pair_norms(A1, B1, A2, B2, D), N + 1)
    A, B = _pair_product(A1, B1, A2, B2, D, 0, N + 1, wb)
    return [_halve(a) for a in A], [_halve(b) for b in B]


def _is_norm(A, B, D: int, target) -> bool:
    """Whether A*A - D B*B = target, 4 times the norm of the numerator-pair
    series (A, B), as one integer identity at x = 2^(8 wb): slots of wb bytes
    (by _pair_norms) hold every coefficient of both sides below half the
    base, so the packed sides are equal exactly when the coefficients are."""
    wb = max(_norm_bytes(*_pair_norms(A, B, A, B, D)), _bound_bytes(max(map(abs, target))))
    pa, pb = _pack(A, wb), _pack(B, wb)
    return pa * pa - D * (pb * pb) == _pack(target, wb)


def _mul_rows(u, v, D: int) -> list[list[int]]:
    """Rows 0..N of the product of two truncated series over Z[x]/(x^D - 1),
    N + 1 = len(u), each row a list of D integers, by Kronecker substitution
    at the two points y and -y, y = 2^(8 wb D) (Harvey, JSC 2009).

    A series packs as U(y) = sum_i u_i(X) y^i, X = 2^(8 wb): its rows of D
    slots at stride D, with no padding.  The row product
    c_k = sum_{i+j=k} u_i v_j has degree up to 2D - 2 in X; lo_k is its
    slots 0..D-1 and hi_k its slots D..2D-2, so c_k = lo_k + y hi_k.  Row
    k of W+ = U(y) V(y) is then lo_k + hi_{k-1}, and row k of
    W- = U(-y) V(-y) is (-1)^k (lo_k - hi_{k-1}); W+ + W- holds 2 lo_k in
    its even rows and 2 hi_{k-1} in its odd ones, W+ - W- the other way
    round.  Both sums are halved slot by slot, and an odd slot raises
    RingError, as does a nonzero slot where hi must be zero: all of
    hi_{-1}, and slot D - 1 of each hi_k, which would be degree 2D - 1.
    Row k of the product, c_k mod x^D - 1, is lo_k + hi_k: the rows of
    lo and hi are picked from the two halves by parity and added as
    integers, so only the (N + 1) D result slots are read.  Every
    slot of lo_k, hi_k and lo_k + hi_k is at most
    B_k = sum_{i+j=k} |u_i|_1 max|v_j|, as a slot of u_i meets at most one
    of v_j in each.  Each slot of W+ + W- and W+ - W-, the only sums read,
    holds 2 lo_k or 2 hi_{k-1} alone; their rows 0..N + 1 are masked and
    parity-checked, so the slots hold 2 B_k for k <= N + 1 and the
    operands (_conv_bytes), and slots above the mask only carry upward.
    """
    N = len(u) - 1
    v = v[: N + 1]
    n = (N + 1) * D
    norms = [2 * sum(map(abs, row)) for row in u]
    wb = _conv_bytes(norms, [max(map(abs, row)) for row in v], N + 2)
    row_bits = 8 * wb * D
    ones = b"\xff" * wb
    # all ones on the even rows of the N + 2 rows read
    even = int.from_bytes((ones * D + bytes(wb * D)) * ((N + 3) // 2), "little")
    u_pos, u_neg = _pack_pm(u, wb, even)
    v_pos, v_neg = _pack_pm(v, wb, even)
    # each big integer is dropped once used, so that few are live at once
    w_pos = u_pos * v_pos
    del u_pos, v_pos
    w_neg = u_neg * v_neg
    del u_neg, v_neg
    # rows 0..N + 1 of both sums, every slot biased by 2^(8 wb - 1)
    lift = _bias(wb, n + D)
    mask = (1 << (row_bits * (N + 2))) - 1
    s_even = (w_pos + w_neg + lift) & mask
    s_odd = (w_pos - w_neg + lift) & mask
    del w_pos, w_neg
    if (s_even | s_odd) & (lift >> (8 * wb - 1)):
        raise RingError("internal corruption: odd slot in a two-point product")
    # halved: no set bit crosses a slot, and each bias halves with its slot
    s_even >>= 1
    s_odd >>= 1
    odd = mask ^ even
    lo = (s_even & even) | (s_odd & odd)  # row k: lo_k
    hi = (s_even & odd) | (s_odd & even)  # row k: hi_{k-1}
    del s_even, s_odd
    # all ones where hi must be zero: all of hi_{-1}, slot D - 1 of each hi_k
    zero = int.from_bytes(ones * D + (bytes(wb * (D - 1)) + ones) * (N + 1), "little")
    if hi & zero != (lift >> 1) & zero:
        raise RingError("internal corruption: a two-point product fills a slot past 2D - 2")
    # the two half biases make one; row N + 1 of lo lies above the slots read
    slots = _read_biased(lo + (hi >> row_bits), wb, 0, n)
    return [slots[o : o + D] for o in range(0, n, D)]


def _pack_pm(rows: list[list[int]], wb: int, even: int) -> tuple[int, int]:
    """U(y) and U(-y) for rows of slots of wb bytes, with even the mask of
    the even rows: U(-y) = 2E - U(y), where E, the even rows alone, is the
    biased U(y) masked to its even rows."""
    u = _pack([c for row in rows for c in row], wb)
    bias = _bias(wb, len(rows) * len(rows[0]))
    e = ((u + bias) & even) - (bias & even)
    return u, 2 * e - u


def _times_int_series(rows: list[list[int]], base: list[int], D: int) -> list[list[int]]:
    """Rows 0..N of a model-ring series times the integer series base, of
    the same length, by one integer product: base has no zeta part, so
    packed with slots D times as wide it sits at row stride D and meets
    every slot of the unpadded rows alone.  Slot s of row k is at most
    sum_{i+j=k} max|rows_i| |base_j|, and slots past row N only carry upward."""
    n = len(rows) * D
    wb = _conv_bytes([max(map(abs, row)) for row in rows], list(map(abs, base)), len(rows))
    slots = _unpack(_pack([c for row in rows for c in row], wb) * _pack(base, wb * D), wb, 0, n)
    return [slots[o : o + D] for o in range(0, n, D)]


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
    wb = _norm_bytes(*_pair_norms(p, q, a, b, D))
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
