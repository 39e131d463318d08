"""The primitive real character chi_D = (./D).

For a fundamental discriminant D = 1 mod 4 (squarefree, D >= 5) the
Kronecker symbol (n/D) coincides with the Jacobi symbol, is even, completely
multiplicative and has conductor exactly D.  CharTable tabulates one period
as the product of the Legendre symbols (n/p) of the primes p | D.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, repeat
from math import gcd
from operator import mul


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


class CharTable(namedtuple("CharTable", "D values")):
    """One period of chi_D: values[n] = chi_D(n mod D), a tuple of ints.

    The residues and non-residues are the units a in [1, D) with
    values[a] = +1 and -1, phi(D)/2 of each.
    """

    __slots__ = ()


def _legendre_row(p: int) -> list[int]:
    """One period of the Legendre symbol (./p) for an odd prime p: 0 at 0,
    1 at the nonzero squares a^2 mod p (a < p/2) and -1 at the other units."""
    row = [-1] * p
    row[0] = 0
    for a in range(1, (p + 1) // 2):
        row[a * a % p] = 1
    return row


def build_char_table(D: int) -> CharTable:
    """Tabulate chi_D as the product of the Legendre rows of the primes
    p | D, each repeated D/p times, and check the character invariants.

    Raises CharacterError for non-fundamental D, either up front or via an
    invariant failure (balance, evenness, cardinality).
    """
    if not is_fundamental(D):
        raise CharacterError(
            f"D={D} rejected: need D = 1 mod 4, D >= 5, squarefree"
        )
    # at most two D-length sequences live at once: the product so far (the
    # row itself at prime D) and the next one
    values = repeat(1, D)
    for p, _ in prime_factors(D):
        row = _legendre_row(p)
        values = tuple(map(mul, values, chain.from_iterable(repeat(row, D // p))))

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
    half = euler_phi(D) // 2
    if values.count(1) != half or values.count(-1) != half:
        raise CharacterError(f"chi is not +1 and -1 phi(D)/2 times each for D={D}")
    return CharTable(D=D, values=values)


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
