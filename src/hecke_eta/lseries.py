"""Special values of L(s, chi_D): exact L(-1) and numeric L'(0).

L(-1, chi_D) comes from the closed finite sum -S/(2D) with
S = sum_{n=1}^{D} n^2 chi_D(n); for D > 5 it is a negative even integer
(equivalently 4D | S), for D = 5 it equals -2/5.  L'(0, chi_D) uses the
log-Gamma formula for even primitive characters,
L'(0, chi) = sum_a chi(a) log Gamma(a/D).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .characters import CharTable


class LValueError(ValueError):
    """L-value invariant failed (bad discriminant or character bug)."""


class LValueRecord(namedtuple("LValueRecord", "D S_chi l_minus_one m_exponent")):
    """Exact data at s = -1: the character sum S (an int), and the Fractions
    L(-1) and m = -L(-1)/2."""

    __slots__ = ()


def l_minus_one(ct: CharTable) -> LValueRecord:
    """Exact L(-1, chi_D) = -S/(2D) with its structural invariants checked."""
    D = ct.D
    S = sum(n * n * ct.values[n % D] for n in range(1, D + 1))
    l = Fraction(-S, 2 * D)
    m = -l / 2
    if D == 5:
        if l != Fraction(-2, 5):
            raise LValueError(f"L(-1, chi_5) = {l}, expected -2/5")
    else:
        if l.denominator != 1 or l >= 0 or l % 2 != 0:
            raise LValueError(
                f"L(-1, chi_{D}) = {l} is not a negative even integer"
            )
        if S % (4 * D) != 0:
            raise LValueError(f"S(chi_{D}) = {S} is not divisible by 4D")
    if m <= 0:
        raise LValueError(f"valuation exponent m = {m} must be positive")
    return LValueRecord(D=D, S_chi=S, l_minus_one=l, m_exponent=m)


def l_prime_zero(ct: CharTable, digits: int = 30):
    """L'(0, chi_D) = sum_{a=1}^{D-1} chi_D(a) log Gamma(a/D), to `digits`."""
    import mpmath
    D = ct.D
    with mpmath.workdps(digits + 10):
        total = mpmath.mpf(0)
        for a in range(1, D):
            c = ct.values[a]
            if c:
                total += c * mpmath.loggamma(mpmath.mpf(a) / D)
        return +total

