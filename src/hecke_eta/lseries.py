"""Special values of L(s, chi_D): exact L(-1) and L'(0) to any precision.

L(-1, chi_D) comes from the closed finite sum -S/(2D) with
S = sum_{n=1}^{D} n^2 chi_D(n); for D > 5 it is a negative even integer
(equivalently 4D | S), for D = 5 it equals -2/5.  L'(0, chi_D) comes from
Dirichlet's class number formula for the real quadratic field,
L'(0, chi_D) = h(D) log eps_D, with eps_D = (t + u sqrt(D))/2 the
fundamental unit and h(D) the class number, both integers; the value is a
`decimal.Decimal` to the requested digits.
"""

import math
from collections import namedtuple
from decimal import Context, Decimal, localcontext
from fractions import Fraction


class LValueError(ValueError):
    """L-value invariant failed (bad discriminant or character bug)."""


class LValueRecord(namedtuple("LValueRecord", "D S_chi l_minus_one m_exponent")):
    """Exact data at s = -1: the character sum S (an int), and the Fractions
    L(-1) and m = -L(-1)/2."""

    __slots__ = ()


def l_minus_one(chi) -> LValueRecord:
    """Exact L(-1, chi_D) = -S/(2D) from the row chi of build_char_table,
    D = len(chi), checked to be -2/5 at D = 5 (m = 1/5) and a negative even
    integer 2k above, so that S = -4Dk and m = -k > 0."""
    D = len(chi)
    S = sum(n * n * chi[n % D] for n in range(1, D + 1))
    l = Fraction(-S, 2 * D)
    m = -l / 2
    if D == 5:
        if l != Fraction(-2, 5):
            raise LValueError(f"L(-1, chi_5) = {l}, expected -2/5")
    elif l.denominator != 1 or l >= 0 or l % 2 != 0:
        raise LValueError(f"L(-1, chi_{D}) = {l} is not a negative even integer")
    return LValueRecord(D=D, S_chi=S, l_minus_one=l, m_exponent=m)


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


def l_prime_zero(chi, digits: int = 30) -> Decimal:
    """L'(0, chi_D) = h(D) log eps_D as a Decimal to `digits` significant
    digits, from the row chi of build_char_table, D = len(chi).

    The unit is checked exactly (t^2 - D u^2 = +-4) and the class number
    by the closeness of its float quotient to an integer; either failure
    raises LValueError.
    """
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
