"""Partition-theoretic data behind the coefficient formula.

Owns the Euler factors (1 - q^d)^{+-1}: one in-place slice step
(_euler_step) builds every product of them in the package, the partitions
into quadratic non-residue parts here, the oracle's integer base
Phi = prod (1 - q^n)^{chi(n)} and the cyclotomic polynomial Phi_D in
cyclotomic.  Also covers the generalized pentagonal expansion of
prod(1 - q^n) and the ordinary partition numbers p(k) as its inverse, the
joint size/length-mod-D counts c[k][r] that realize the twisted counts
p_ord(k, zeta_D^b), and their signed distinct-parts analogue e[k][r], the
coefficients of prod(1 - zeta_D^a q^n).
"""

from collections import namedtuple
from math import sqrt
from operator import add, sub

from .characters import TABLE_S_PER_D


def _euler_step(P: list[int], d: int, e: int) -> None:
    """Multiply the truncated series P in place by (1 - q^d)^e, e in {-1, 0, 1}.

    Slice blocks of length d: dividing, P[k] += P[k - d] runs upwards so each
    block adds the block below it already updated; multiplying, P[k] -= P[k - d]
    runs downwards so each block subtracts the block below it not yet updated.
    O(N) additions in O(N / d) slice steps.
    """
    if e == -1:
        for lo in range(d, len(P), d):
            P[lo : lo + d] = map(add, P[lo : lo + d], P[lo - d : lo])
    elif e == 1:
        for lo in reversed(range(d, len(P), d)):
            P[lo : lo + d] = map(sub, P[lo : lo + d], P[lo - d : lo])


def _euler_product(factors, N: int) -> list[int]:
    """prod (1 - q^d)^e over the pairs (d, e) of factors, e in {-1, 0, 1},
    truncated at q^N; a factor with d > N is 1 there."""
    P = [1] + [0] * N
    for d, e in factors:
        _euler_step(P, d, e)
    return P


def pentagonal_int_series(K: int) -> list[int]:
    """Coefficients of prod_{n>=1}(1 - q^n) up to q^K: by Euler's pentagonal
    number theorem, (-1)^j at the generalized pentagonal numbers
    g(j) = j(3j - 1)/2 and g(-j) = g(j) + j, j >= 1, and 1 at q^0."""
    out = [1] + [0] * K
    j = 1
    while (g := j * (3 * j - 1) // 2) <= K:
        sign = -1 if j % 2 else 1
        out[g] = sign
        if g + j <= K:
            out[g + j] = sign
        j += 1
    return out


def p_table(N: int) -> list[int]:
    """p(0..N), exact, by inverting the pentagonal series: p E = 1 gives
    p(k) = -sum E_g p(k - g) over the O(sqrt k) nonzero E_g, 0 < g <= k."""
    if N < 0:
        raise ValueError("order must be >= 0")
    terms = [(g, -c) for g, c in enumerate(pentagonal_int_series(N)) if c][1:]
    p = [1] + [0] * N
    for k in range(1, N + 1):
        total = 0
        for g, s in terms:
            if g > k:
                break
            total += s * p[k - g]
        p[k] = total
    return p


def p_nr_table(chi, N: int) -> list[int]:
    """Partitions of 0..N into parts n with chi_D(n) = -1, chi the row of
    build_char_table, D = len(chi)."""
    if N < 0:
        raise ValueError("order must be >= 0")
    D = len(chi)
    return _euler_product(((n, -1) for n in range(1, N + 1) if chi[n % D] == -1), N)


def _parts_at_most(N: int):
    """Yield m, P for m = 1..N, P[j] the partitions of j into parts <= m,
    extended in place by the factor 1/(1 - q^m): O(N) per m."""
    P = [1] + [0] * N
    for m in range(1, N + 1):
        _euler_step(P, m, -1)
        yield m, P


def length_distribution(D: int, N: int) -> list[list[int]]:
    """c[k][r] = number of partitions of k whose length is r mod D.

    Conjugation swaps length and largest part, and the partitions of k with
    largest part m are those of k - m into parts of size at most m.  So
    c[k][m mod D] collects P_m(k - m) over m: O(N^2) additions whatever D
    is, and a table of (N+1) x D entries.
    """
    if D < 1:
        raise ValueError("modulus must be positive")
    if N < 0:
        raise ValueError("order must be >= 0")
    c = [[0] * D for _ in range(N + 1)]
    c[0][0] = 1
    for m, P in _parts_at_most(N):
        r = m % D
        for row, count in zip(c[m:], P):
            row[r] += count
    return c


def distinct_length_distribution(D: int, N: int) -> list[list[int]]:
    """e[k][r] = sum of (-1)^l over the partitions of k into l distinct parts
    with l = r mod D: the coefficients of prod(1 - theta q^n), theta^D = 1.

    Taking the staircase l, l-1, ..., 1 off such a partition and conjugating
    leaves one into parts <= l, so e[k][l mod D] collects (-1)^l
    P_l(k - l(l+1)/2) over the O(sqrt N) l with l(l+1)/2 <= N: O(N^1.5).
    """
    if D < 1:
        raise ValueError("modulus must be positive")
    if N < 0:
        raise ValueError("order must be >= 0")
    e = [[0] * D for _ in range(N + 1)]
    e[0][0] = 1
    for l, P in _parts_at_most(N):
        s = l * (l + 1) // 2
        if s > N:
            break
        r = l % D
        sign = -1 if l % 2 else 1
        for row, count in zip(e[s:], P):
            row[r] += sign * count
    return e


class PartitionTables(namedtuple("PartitionTables", "D N_max p p_nr c")):
    """p, p_nr and the length-distribution matrix c up to N_max, as tuples of
    ints (c a tuple of rows)."""

    __slots__ = ()


def build_partition_tables(chi, N: int) -> PartitionTables:
    D = len(chi)
    p = p_table(N)
    pnr = p_nr_table(chi, N)
    c = length_distribution(D, N)
    for k, row in enumerate(c):
        if sum(row) != p[k]:
            raise AssertionError(f"length distribution row {k} does not sum to p({k})")
        c[k] = tuple(row)  # in place: the table is never held twice
    return PartitionTables(D=D, N_max=N, p=tuple(p), p_nr=tuple(pnr), c=tuple(c))


def tables_s(D: int, N: int) -> float:
    """Predicted seconds of `partitions --D D --N N`, the tables to order N
    at modulus D built and written: the O(N^2) additions of the length
    distribution, the (N + 1) x D counts about sqrt(N) digits wide and the
    O(D) character table.  Fitted, with a 1.2x margin for the spread of
    repeated runs, to the 35 of 53 runs, D 5..900001, N 0..20000, that took
    at least 1 s, up to 51 s, and 20 runs at D 30005..999997, N 0..300, up
    to 4.3 s; it over-predicts them by up to 2.4x where the table, not the
    character table, dominates."""
    return 1.75e-7 * (N + 1) ** 2 + 1.8e-8 * D * (N + 1) ** 1.5 + TABLE_S_PER_D * D


def tables_mb(D: int, N: int) -> float:
    """Predicted peak MB of `partitions --D D --N N`: 30 for the interpreter,
    60 bytes a unit of D for the character table, and the (N + 1) x D
    counts, ints up to about 3.7 sqrt(N) bits wide held in row tuples while
    the rows are written one at a time, 20 + 0.6 sqrt(N) bytes per count; a
    count c[k][r] with k < r is always zero, a shared small int that costs
    only its 8-byte tuple slot.  It bounds 16 end-to-end runs, D 5..900001,
    N 0..16000, by 1.04x to 1.64x, in MB measured/predicted by (D, N):
    (1001, 3000) 159/166, (1001, 4000) 229/237, (1001, 5000) 299/315,
    (1001, 6000) 369/400, (101, 6000) 57/70, (101, 12000) 114/134,
    (101, 16000) 158/185, (301, 10000) 235/268, (5, 16000) 35/38,
    (5001, 2000) 179/188, (2001, 500) 27/41, (10001, 100) 24/39,
    (10001, 1000) 113/126, (100001, 10) 32/45, (100001, 100) 100/117,
    (900001, 0) 70/91."""
    m = min(N + 1, D)
    zeros = m * (D - 1) - m * (m - 1) // 2  # c[k][r] for k < r < D
    per_count = 20 + 0.6 * sqrt(N + 1)
    return 30 + 6e-5 * D + ((D * (N + 1) - zeros) * per_count + 8 * zeros) / 1e6
