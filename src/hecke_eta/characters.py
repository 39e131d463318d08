"""The primitive real character chi_D = (./D) and residue classification mod D.

For a fundamental discriminant D = 1 mod 4 (squarefree, D >= 5) the
Kronecker symbol (n/D) coincides with the Jacobi symbol, is even, completely
multiplicative and has conductor exactly D.  CharTable tabulates one period
together with the sorted lists of quadratic residues / non-residues.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd


class CharacterError(ValueError):
    """Invalid modulus or broken character invariant."""


def prime_factors(n: int) -> list[tuple[int, int]]:
    """Pairs (p, e) with n = prod p^e, p ascending, by trial division; [] for n < 2."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_fundamental(D: int) -> bool:
    """True iff D = 1 mod 4, D >= 5 and D squarefree."""
    return D >= 5 and D % 4 == 1 and all(e == 1 for _, e in prime_factors(D))


def kronecker(n: int, D: int) -> int:
    """Kronecker symbol (n/D) for fundamental D = 1 mod 4.

    D is odd and positive here, so this is the Jacobi symbol, computed by
    the standard reciprocity loop in O(log^2).
    """
    if not is_fundamental(D):
        raise CharacterError(f"D={D} is not a fundamental discriminant = 1 mod 4")
    return _jacobi(n, D)


def _jacobi(n: int, D: int) -> int:
    """Jacobi symbol (n/D) for odd D > 0, with no check on D."""
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


class CharTable(namedtuple("CharTable", "D values qr_list nr_list")):
    """One period of chi_D plus residue / non-residue lists.

    values[n] = chi_D(n mod D), a tuple of ints; qr_list and nr_list are the
    sorted tuples of a in [1, D] with chi_D(a) = +1 / -1, each of length
    phi(D)/2.
    """

    __slots__ = ()

    def chi(self, n: int) -> int:
        return self.values[n % self.D]


def build_char_table(D: int) -> CharTable:
    """Tabulate chi_D and check the character invariants.

    Raises CharacterError for non-fundamental D, either up front or via an
    invariant failure (balance, evenness, cardinality).
    """
    if not is_fundamental(D):
        raise CharacterError(
            f"D={D} rejected: need D = 1 mod 4, D >= 5, squarefree"
        )
    values = tuple(_jacobi(n, D) for n in range(D))
    qr = tuple(a for a in range(1, D + 1) if values[a % D] == 1)
    nr = tuple(a for a in range(1, D + 1) if values[a % D] == -1)

    if values[1 % D] != 1:
        raise CharacterError("chi(1) != 1")
    for n in range(D):
        if (values[n] == 0) != (gcd(n, D) > 1):
            raise CharacterError(f"chi({n}) zero pattern wrong for D={D}")
    if values[D - 1] != 1:
        raise CharacterError(f"chi(-1) != 1 for D={D}: character is not even")
    if sum(values) != 0:
        raise CharacterError(f"sum chi(n) != 0 for D={D}")
    if sum(n * values[n % D] for n in range(1, D + 1)) != 0:
        raise CharacterError(f"sum n*chi(n) != 0 for D={D}")
    phi = euler_phi(D)
    if len(qr) != phi // 2 or len(nr) != phi // 2:
        raise CharacterError(f"residue lists have wrong cardinality for D={D}")
    return CharTable(D=D, values=values, qr_list=qr, nr_list=nr)


def euler_phi(n: int) -> int:
    """Euler totient."""
    for p, _ in prime_factors(n):
        n -= n // p
    return n


def moebius(n: int) -> int:
    """Moebius function: 0 unless n is squarefree, else (-1)^(number of primes)."""
    factors = prime_factors(n)
    if any(e > 1 for _, e in factors):
        return 0
    return (-1) ** len(factors)


def fundamental_discriminants(limit: int) -> list[int]:
    """All fundamental D = 1 mod 4 with 5 <= D <= limit, ascending."""
    return [D for D in range(5, limit + 1, 4) if is_fundamental(D)]
