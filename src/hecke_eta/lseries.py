"""Special values of L(s, chi_D): exact L(-1) and L'(0) to any precision.

L(-1, chi_D) comes from the closed finite sum -S/(2D) with
S = sum_{n=1}^{D} n^2 chi_D(n); for D > 5 it is a negative even integer
(equivalently S > 0 and 4D | S), for D = 5 it equals -2/5.  The q^m
exponent m = -L(-1, chi_D)/2 = S/(4D) is checked from S alone and returned
as an integer pair (m_exponent), which is all the exact kernel, the numeric
layer and `lvalues` read; l_minus_one gives the same data as Fractions.
L'(0, chi_D) comes from Dirichlet's class number formula for the real
quadratic field, L'(0, chi_D) = h(D) log eps_D, with eps_D = (t + u sqrt(D))/2
the fundamental unit and h(D) the class number, both integers.  The log is
one integer fixed-point natural log (log_fixed), so l_prime_zero_fixed gives
the value as an int in units of 2^-bits; l_prime_zero builds a
`decimal.Decimal` to the requested digits from it.  exp_fixed and pi_fixed
serve analytic.check_phi_relation; all three sum one odd series
(_odd_series, atanh or arctan by its sign), and ln 2 (_ln2) and pi
(pi_fixed) are computed once per precision.  `fractions` and `decimal` are
imported only by l_minus_one and l_prime_zero, the API's Fraction and
Decimal edge, so no other caller loads them.
"""

import math
from collections import namedtuple
from functools import lru_cache


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


def _odd_series(z: int, p: int, cut: int, sign: int = 1) -> int:
    """atanh(z / 2^p) (sign 1) or arctan(z / 2^p) (sign -1) in units of 2^-p,
    for 0 <= z < 2^p / 3: the terms sign^j z^(2j+1) / (2j+1) down to the first
    below `cut` units, so the tail left, its terms shrinking by z^2 < 1/9, is
    under 9/8 cut; the floors lose under 3 units a term."""
    z2 = sign * (z * z >> p)
    total = 0
    j = 1
    while abs(term := z // j) >= cut:
        total += term
        z = z * z2 >> p
        j += 2
    return total


@lru_cache(maxsize=32)
def _ln2(p: int, cut: int) -> int:
    """ln 2 = 2 atanh(1/3) in units of 2^-p, its series cut below `cut`
    units (_odd_series), computed once per (p, cut): log_fixed and exp_fixed
    ask for it at the same few precisions call after call."""
    return 2 * _odd_series((1 << p) // 3, p, cut)


def log_fixed(v: int, s: int, bits: int) -> int:
    """ln(v / 2^s) in units of 2^-bits, within one unit, for ints v >= 1 and
    bits >= 0.

    v / 2^s = 2^e x with x in [1, 2), so ln(v / 2^s) = e ln 2 + 2 atanh(z)
    with z = (x - 1)/(x + 1) in [0, 1/3), and ln 2 = 2 atanh(1/3).  Both
    series are summed on ints in units of 2^-p, p = bits + g: the g guard
    bits keep the floors of both (the ln 2 series taken e times) under 0.3
    of an output unit, each tail is cut below 0.08 of one, and the final
    rounding adds a half.
    """
    if v < 1:
        raise ValueError(f"log of {v}, which is not positive")
    n = v.bit_length() - 1
    e = n - s
    eb = abs(e).bit_length()
    g = 8 + eb + (bits + eb).bit_length()
    p = bits + g
    one = 1 << p
    x = v << p - n if p >= n else v >> n - p  # x / 2^p in [1, 2)
    cut = 1 << g - 5
    total = 2 * _odd_series(((x - one) << p) // (x + one), p, cut)
    if e:
        total += e * _ln2(p, cut >> eb)
    return total + (1 << g - 1) >> g


def exp_fixed(x: int, bits: int) -> int:
    """exp(x / 2^bits) in units of 2^-bits, within one unit plus 2^-bits of
    the value, for ints x and bits >= 0.

    x / 2^bits = k ln 2 + r with r in [0, ln 2), so exp = 2^k e^r, with
    ln 2 = 2 atanh(1/3) and the Taylor series of e^r, its terms shrinking by
    r / j < 0.7, summed on ints in units of 2^-p, p = bits + g: the g guard
    bits keep the floors of both (ln 2 taken k times) under 0.1 of an output
    unit relative to the value, and each tail under 0.08 of one.
    """
    kb = (abs(x) >> bits).bit_length() + 1  # |k| < 2^kb
    g = 8 + kb + (bits + kb).bit_length()
    p = bits + g
    one = 1 << p
    cut = 1 << g - 5
    k, r = divmod(x << g, _ln2(p, cut >> kb))
    total = term = one
    j = 1
    while (term := (term * r >> p) // j) >= cut:
        total += term
        j += 1
    s = g - k
    return total << -s if s <= 0 else (total >> s - 1) + 1 >> 1


@lru_cache(maxsize=16)
def pi_fixed(bits: int) -> int:
    """pi in units of 2^-bits, within one unit, for bits >= 0, computed once
    per bits: Machin's pi = 16 arctan(1/5) - 4 arctan(1/239), summed on ints
    in units of 2^-p, p = bits + g, to the last nonzero term; the g guard
    bits keep the floors, under 3 units a term, and the tails under 0.2 of an
    output unit."""
    g = 8 + (bits + 8).bit_length()
    p = bits + g
    pi = 16 * _odd_series((1 << p) // 5, p, 1, -1) - 4 * _odd_series((1 << p) // 239, p, 1, -1)
    return pi + (1 << g - 1) >> g


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


def l_prime_zero_fixed(chi, bits: int) -> int:
    """L'(0, chi_D) = h(D) log eps_D in units of 2^-bits, within 2 h(D)
    units, from the row chi of build_char_table, D = len(chi).

    The unit is checked exactly (t^2 - D u^2 = +-4) and the class number
    by the closeness of its float quotient to an integer; either failure
    raises LValueError.
    """
    D = len(chi)
    t, u = _fundamental_unit(D)
    if t * t - D * u * u not in (4, -4):
        raise LValueError(f"(t + u sqrt({D}))/2 is not a unit: t^2 - D u^2 is not +-4")
    # 2^k (t + u sqrt(D)) less under one unit, so its log is off by < 2^-k
    k = bits + 4
    log_eps = log_fixed((t << k) + math.isqrt(u * u * D << 2 * k), k + 1, bits)
    h = _class_number(chi, log_eps / (1 << bits))
    return h * log_eps


def l_prime_zero(chi, digits: int = 30) -> "decimal.Decimal":
    """L'(0, chi_D) = h(D) log eps_D as a Decimal to `digits` significant
    digits, from the row chi of build_char_table, D = len(chi): the value
    of l_prime_zero_fixed at digits + 10 digits' worth of bits, correctly
    rounded.  TypeError unless digits is an int, ValueError unless it is at
    least 1, and LValueError as l_prime_zero_fixed.
    """
    if not isinstance(digits, int):
        raise TypeError(f"digits must be an int, not {type(digits).__name__}")
    if digits < 1:
        raise ValueError(f"digits must be at least 1, not {digits}")
    from decimal import Context, Decimal

    bits = (digits + 10) * 3322 // 1000 + 1  # log2(10) < 3.322
    return Context(prec=digits).divide(Decimal(l_prime_zero_fixed(chi, bits)), 1 << bits)
