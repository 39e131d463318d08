"""Special values of L(s, chi_D): exact L(-1) and L'(0) to any precision.

L(-1, chi_D) comes from the closed finite sum -S/(2D) with
S = sum_{n=1}^{D} n^2 chi_D(n); for D > 5 it is a negative even integer
(equivalently S > 0 and 4D | S), for D = 5 it equals -2/5.  The q^m
exponent m = -L(-1, chi_D)/2 = S/(4D) is checked from S alone and returned
as an integer pair (m_exponent), which is all the exact kernel and the
numeric layer read; l_minus_one gives the same data as Fractions.
L'(0, chi_D) comes from Dirichlet's class number formula for the real
quadratic field, L'(0, chi_D) = h(D) log eps_D, with eps_D = (t + u sqrt(D))/2
the fundamental unit and h(D) the class number, both integers; the value is
a `decimal.Decimal` to the requested digits.  `fractions` and `decimal` are
imported by the two functions that make a Fraction or a Decimal, so a caller
of m_exponent alone loads neither.
"""

import math
from collections import namedtuple


class LValueError(ValueError):
    """L-value invariant failed (bad discriminant or character bug)."""


class LValueRecord(namedtuple("LValueRecord", "D S_chi l_minus_one m_exponent")):
    """Exact data at s = -1: the character sum S (an int), and the Fractions
    L(-1) and m = -L(-1)/2."""

    __slots__ = ()


def _char_sum(chi) -> int:
    """S = sum_{n=1}^{D} n^2 chi(n) for the row chi, D = len(chi)."""
    D = len(chi)
    return sum(n * n * chi[n % D] for n in range(1, D + 1))


def _checked_m(D: int, S: int) -> tuple[int, int]:
    """m = S/(4D) as (numerator, denominator) in lowest terms, after the
    check that L(-1) = -S/(2D) is -2/5 at D = 5 (S = 4, m = 1/5) and a
    negative even integer above (S > 0 and 4D | S, m a positive integer)."""
    if D == 5:
        if S != 4:
            raise LValueError(f"L(-1, chi_5) = -{S}/10, expected -2/5")
        return 1, 5
    if S <= 0 or S % (4 * D):
        raise LValueError(f"L(-1, chi_{D}) = -{S}/{2 * D} is not a negative even integer")
    return S // (4 * D), 1


def m_exponent(chi) -> tuple[int, int]:
    """The q^m exponent m = -L(-1, chi_D)/2 of eta_D as an exact pair
    (numerator, denominator), from the row chi of build_char_table,
    D = len(chi), with the checks of l_minus_one."""
    return _checked_m(len(chi), _char_sum(chi))


def l_minus_one(chi) -> LValueRecord:
    """Exact L(-1, chi_D) = -S/(2D) from the row chi of build_char_table,
    D = len(chi), checked to be -2/5 at D = 5 (m = 1/5) and a negative even
    integer 2k above, so that S = -4Dk and m = -k > 0."""
    from fractions import Fraction

    D = len(chi)
    S = _char_sum(chi)
    m = Fraction(*_checked_m(D, S))
    return LValueRecord(D=D, S_chi=S, l_minus_one=-2 * m, m_exponent=m)


def _fundamental_unit(D: int) -> tuple[int, int]:
    """(t, u) with eps_D = (t + u sqrt(D))/2 the fundamental unit of
    Z[(1 + sqrt(D))/2].

    Runs the continued fraction of omega = (1 + sqrt(D))/2 through its
    complete quotients (P + sqrt(D))/Q.  With omega' = (1 - sqrt(D))/2, the
    convergent p/q before a complete quotient with denominator Q has
    N(p - q omega') = +-Q/2, so the one before the first return to Q = 2
    gives the smallest unit above 1, p - q omega' = (2p - q + q sqrt(D))/2.
    """
    s = math.isqrt(D)
    P, Q = 1, 2
    p, p0, q, q0 = 1, 0, 0, 1
    while True:
        a = (P + s) // Q
        p, p0 = a * p + p0, p
        q, q0 = a * q + q0, q
        P = a * Q - P
        Q = (D - P * P) // Q
        if Q == 2:
            return 2 * p - q, q


def _class_number(chi, log_eps: float) -> int:
    """h(D) = -sum_{0<a<D/2} chi(a) log(2 sin(pi a/D)) / log eps_D, rounded;
    LValueError unless the quotient lies within 1e-6 of an integer >= 1."""
    D = len(chi)
    s = -math.fsum(
        chi[a] * math.log(2 * math.sin(math.pi * a / D)) for a in range(1, (D + 1) // 2) if chi[a]
    )
    ratio = s / log_eps
    h = round(ratio)
    if h < 1 or abs(ratio - h) > 1e-6:
        raise LValueError(f"class number of D={D} is not an integer: {ratio!r}")
    return h


def l_prime_zero(chi, digits: int = 30) -> "decimal.Decimal":
    """L'(0, chi_D) = h(D) log eps_D as a Decimal to `digits` significant
    digits, from the row chi of build_char_table, D = len(chi).

    The unit is checked exactly (t^2 - D u^2 = +-4) and the class number
    by the closeness of its float quotient to an integer; either failure
    raises LValueError.
    """
    from decimal import Context, Decimal, localcontext

    D = len(chi)
    t, u = _fundamental_unit(D)
    if t * t - D * u * u not in (4, -4):
        raise LValueError(f"(t + u sqrt({D}))/2 is not a unit: t^2 - D u^2 is not +-4")
    with localcontext(Context(prec=digits + 10)):
        log_eps = ((Decimal(t) + Decimal(u) * Decimal(D).sqrt()) / 2).ln()
        h = _class_number(chi, float(log_eps))
        value = h * log_eps
    with localcontext(Context(prec=digits)):
        return +value
