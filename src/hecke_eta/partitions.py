"""Partition-theoretic data behind the coefficient formula.

Covers the ordinary partition numbers p(k) (Euler pentagonal recurrence),
the generalized pentagonal expansion of prod(1 - theta q^n), partitions
into quadratic non-residue parts, the joint size/length-mod-D counts
c[k][r] that realize the twisted counts p_ord(k, zeta_D^b), and their signed
distinct-parts analogue e[k][r], the coefficients of prod(1 - zeta_D^a q^n).
"""

from __future__ import annotations

from collections import namedtuple
from operator import add

from .characters import CharTable


class PentagonalTerm(namedtuple("PentagonalTerm", "k g sign theta_power")):
    """One term of prod(1 - theta q^n) = sum sign * theta^theta_power * q^g."""

    __slots__ = ()


def p_table(N: int) -> list[int]:
    """p(0..N) by the pentagonal recurrence, exact."""
    if N < 0:
        raise ValueError("order must be >= 0")
    p = [0] * (N + 1)
    p[0] = 1
    for k in range(1, N + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > k:
                break
            sign = 1 if j % 2 == 1 else -1
            total += sign * p[k - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= k:
                total += sign * p[k - g2]
            j += 1
        p[k] = total
    return p


def pentagonal_terms(K: int) -> list[PentagonalTerm]:
    """All generalized pentagonal terms with exponent g(k) <= K.

    Encodes p_e(k, theta): sign (-1)^k with theta-power 3k-1 for k > 0 and
    -3k for k <= 0.  Sorted by (g, k) for deterministic output.
    """
    terms = []
    k = 0
    while True:
        g = k * (3 * k - 1) // 2
        if k > 0 and g > K:
            break
        if g <= K:
            if k > 0:
                terms.append(PentagonalTerm(k, g, (-1) ** k, 3 * k - 1))
            else:
                terms.append(PentagonalTerm(k, g, (-1) ** (-k), -3 * k))
        if k <= 0:
            k = -k + 1
        else:
            k = -k
    terms.sort(key=lambda t: (t.g, t.k))
    return terms


def pentagonal_int_series(K: int) -> list[int]:
    """Coefficients of prod_{n>=1}(1 - q^n) up to q^K (theta = 1)."""
    out = [0] * (K + 1)
    for t in pentagonal_terms(K):
        out[t.g] += t.sign
    return out


def p_nr_table(ct: CharTable, N: int) -> list[int]:
    """Partitions of 0..N into parts n with chi_D(n) = -1."""
    p = [0] * (N + 1)
    p[0] = 1
    for part in range(1, N + 1):
        if ct.values[part % ct.D] == -1:
            for k in range(part, N + 1):
                p[k] += p[k - part]
    return p


def _parts_at_most(N: int):
    """Yield m, P for m = 1..N, P[j] the partitions of j into parts <= m,
    extended in place: P_m(j) = P_{m-1}(j) + P_m(j - m), O(N) per m."""
    P = [1] + [0] * N
    for m in range(1, N + 1):
        for lo in range(m, N + 1, m):
            P[lo : lo + m] = map(add, P[lo : lo + m], P[lo - m : lo])
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


def build_partition_tables(ct: CharTable, N: int) -> PartitionTables:
    p = p_table(N)
    pnr = p_nr_table(ct, N)
    c = length_distribution(ct.D, N)
    for k, row in enumerate(c):
        if sum(row) != p[k]:
            raise AssertionError(f"length distribution row {k} does not sum to p({k})")
        c[k] = tuple(row)  # in place: the table is never held twice
    return PartitionTables(D=ct.D, N_max=N, p=tuple(p), p_nr=tuple(pnr), c=tuple(c))
