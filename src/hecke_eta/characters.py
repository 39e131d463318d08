"""The primitive real character chi_D = (./D).

For a fundamental discriminant D = 1 mod 4 (squarefree, D >= 5) the
Kronecker symbol (n/D) coincides with the Jacobi symbol, is even, completely
multiplicative and has conductor exactly D.  It is the product of the
Legendre symbols (n/p) of the primes p | D, and build_char_table tabulates
one period of it, chi[n] = chi_D(n mod D), as the product of their rows: a
checked tuple of ints whose length is D, which every reader takes as chi.
"""

from itertools import chain, islice, repeat
from operator import eq, mul, neg


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


def _legendre_row(p: int) -> list[int]:
    """One period of the Legendre symbol (./p) for an odd prime p: 0 at 0,
    1 at the nonzero squares a^2 mod p (a < p/2) and -1 at the other units."""
    row = [-1] * p
    row[0] = 0
    for a in range(1, (p + 1) // 2):
        row[a * a % p] = 1
    return row


def _checked_legendre_row(p: int) -> list[int]:
    """_legendre_row(p), checked: row[g a mod p] = -row[a] for a primitive
    root g of p leaves only 0 at 0 and +-(./p) on the units (chi(1) = 1
    fixes the sign).  The permuted row is read at C speed, 2^16 at a time,
    from row[-j p % g :: g], which is the a with g a in [j p, (j + 1) p)."""
    row = _legendre_row(p)
    cofactors = [(p - 1) // q for q, _ in prime_factors(p - 1)]
    g = next(g for g in range(2, p) if all(pow(g, c, p) != 1 for c in cofactors))
    step = g << 16
    permuted = chain.from_iterable(
        row[s : s + step : g] for j in range(g) for s in range(-j * p % g, p, step)
    )
    if not all(map(eq, permuted, map(neg, row))):
        raise CharacterError(f"row of p={p} is not the Legendre symbol (./p)")
    return row


def _prime_row_product(D: int, row_of) -> tuple[int, ...]:
    """One period of n -> prod_{p | D} row_of(p)[n mod p], D squarefree and
    odd > 1, holding at most two D-length sequences at once."""
    values = repeat(1, D)
    for p, _ in prime_factors(D):
        values = tuple(map(mul, values, chain.from_iterable(repeat(row_of(p), D // p))))
    return values


def build_char_table(D: int) -> tuple[int, ...]:
    """One period of chi_D, chi[n] = chi_D(n mod D) for n in [0, D): the
    product of the Legendre rows of the primes p | D, each checked against
    a primitive root of p, with the character invariants checked.  The
    residues and non-residues are the units a with chi[a] = +1 and -1.

    Raises CharacterError for non-fundamental D, either up front or via a
    wrong row or an invariant failure (chi(1), zero pattern, evenness
    chi(n) = chi(D - n), balance, cardinality).  Every guard runs at C
    speed: the zeros sit exactly at the non-units when chi[::p] is all zero
    for each p | D and D - phi(D) entries are zero.  With chi(0) = 0 and
    evenness, 2 sum n chi(n) = sum (n + D - n) chi(n) = D sum chi(n), so the
    balance guard also gives sum n chi(n) = 0.
    """
    if not is_fundamental(D):
        raise CharacterError(
            f"D={D} rejected: need D = 1 mod 4, D >= 5, squarefree"
        )
    values = _prime_row_product(D, _checked_legendre_row)
    phi = euler_phi(D)

    if values[1] != 1:
        raise CharacterError("chi(1) != 1")
    if values.count(0) != D - phi or any(any(values[::p]) for p, _ in prime_factors(D)):
        raise CharacterError(f"chi zero pattern wrong for D={D}")
    if not all(map(eq, islice(values, 1, None), reversed(values))):
        raise CharacterError(f"chi(n) != chi(D - n) for D={D}: character is not even")
    if sum(values) != 0:
        raise CharacterError(f"sum chi(n) != 0 for D={D}")
    if values.count(1) != phi // 2 or values.count(-1) != phi // 2:
        raise CharacterError(f"chi is not +1 and -1 phi(D)/2 times each for D={D}")
    return values


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
