"""Exact arithmetic in the model ring Z[x]/(x^D - 1) for Z[zeta_D], and the
period polynomials.

A model-ring element is a plain list of D integers, entry r standing for
zeta_D^r, and every function here reads D as the length of the list.
Working modulo x^D - 1 instead of the cyclotomic polynomial keeps
multiplication a plain cyclic convolution; the redundancy (for D prime the
all-ones vector maps to zero) is absorbed by the trace functional, which is
well defined on images.  The trace and the projection of fixed-field
elements onto O_D serve the convolution oracle, which multiplies whole
series of model-ring elements by Kronecker substitution and twists them by
x -> x^a; the projection is O(D), a trace and one character sum.  cyc_mul,
one cyclic convolution of D^2 products, is the tests' reference product and
is called by no library path.  The period polynomials f_plus / f_minus
never enter the model ring: their coefficients in O_D follow from
closed-form power sums, and their product is checked against Phi_D, built
from integer Euler factors in partitions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .characters import CharTable, euler_phi, moebius
from .partitions import _euler_product
from .qseries import _mul_pairs, euler_transform
from .quad_ring import RingElem


class ProjectionError(ValueError):
    """Element is not (recognizably) in Q(sqrt(D))."""


def cyc_mul(u: list[int], v: list[int]) -> list[int]:
    """Cyclic convolution (u*v)[k] = sum_{i+j=k mod D} u[i]v[j], D^2 products:
    the tests' reference product, called by no library path."""
    D = len(u)
    if len(v) != D:
        raise ValueError(f"dimension mismatch: D={D} vs D={len(v)}")
    out = [0] * D
    for i in range(D):
        a = u[i]
        if a == 0:
            continue
        for j in range(D):
            b = v[j]
            if b:
                k = i + j
                if k >= D:
                    k -= D
                out[k] += a * b
    return out


@lru_cache(maxsize=None)
def _trace_weights(D: int) -> tuple[int, ...]:
    """T(k) = trace of zeta_D^k from Q(zeta_D) to Q, for squarefree D."""
    phi = euler_phi(D)
    out = []
    for k in range(D):
        g = gcd(k, D)
        d = D // g
        out.append(moebius(d) * phi // euler_phi(d))
    return tuple(out)


def trace(u: list[int]) -> int:
    """Field trace of the image of u in Q(zeta_D), D = len(u), extended
    Z-linearly."""
    w = _trace_weights(len(u))
    return sum(c * t for c, t in zip(u, w) if c)


def project_to_quad(u: list[int], ct: CharTable) -> RingElem:
    """Project an element of the fixed field of H onto O_D.

    Uses alpha = trace(u)/phi(D) and beta = trace(u*g)/(D*phi(D)) with g =
    sum_a chi_D(a) x^a the Gauss-sum element (sign convention +sqrt(D),
    D = 1 mod 4), in O(D): trace(u*g) = D sum_i chi(i) u_i, as
    Tr(zeta^i sqrt(D)) = D chi(i) for the primitive chi.  Non-exact division
    means u is not in Q(sqrt(D)): this is the correctness guard for the whole
    exact pipeline, so it raises rather than rounding.
    """
    if len(u) != ct.D:
        raise ValueError(f"dimension mismatch: {len(u)} vs {ct.D}")
    D = ct.D
    phi = euler_phi(D)
    alpha2 = Fraction(2 * trace(u), phi)
    beta2 = Fraction(2 * sum(c * x for c, x in zip(u, ct.values) if c), phi)
    if alpha2.denominator != 1 or beta2.denominator != 1:
        raise ProjectionError(
            f"element not in Q(sqrt({D})): projection pair ({alpha2}, {beta2})"
        )
    a, b = int(alpha2), int(beta2)
    if (a - b) % 2 != 0:
        raise ProjectionError(
            f"element not in O_{D}: numerator pair ({a}, {b}) breaks parity"
        )
    return RingElem(a, b, D)


class PeriodPair(namedtuple("PeriodPair", "D f_plus f_minus")):
    """f_plus = prod_{a in qr}(1 - zeta^a x), f_minus the nr analogue.

    Coefficients are tuples of O_D elements (RingElem), constant terms
    exactly 1, and coefficientwise conjugation swaps the two polynomials.
    """

    __slots__ = ()


def _expand_period(ct: CharTable, sign: int, h: int) -> tuple[list[int], list[int]]:
    """Numerator pairs (A, B) of prod (1 - zeta^a x) over the h residues a
    with chi(a) = sign.

    Its logarithm is -sum_m p(m) x^m / m with the power sums
    p(m) = sum_a zeta^{am} = (c_D(m) + sign chi(m) sqrt(D))/2, since
    1_{chi = sign} = (1 + sign chi)/2 on units, c_D(m) = sum_{units} zeta^{am}
    is the Ramanujan sum (the trace weight of zeta^m) and the Gauss sum gives
    sum_a chi(a) zeta^{am} = chi(m) sqrt(D).  A wrong power sum breaks an
    exact division in euler_transform or leaves coefficient h+1 nonzero.
    """
    D = ct.D
    c = _trace_weights(D)
    ms = range(1, h + 2)
    A, B = euler_transform(
        [-c[m % D] for m in ms], [-sign * ct.values[m % D] for m in ms], D, h + 1
    )
    if A[h + 1] or B[h + 1]:
        raise ProjectionError(f"period polynomial of D={D} has degree above {h}")
    return A[:-1], B[:-1]


def period_polynomials(ct: CharTable) -> PeriodPair:
    """f_plus and f_minus with coefficients in O_D, from their power sums."""
    D = ct.D
    h = euler_phi(D) // 2
    fp = _expand_period(ct, 1, h)
    fm = _expand_period(ct, -1, h)
    _check_period_invariants(fp, fm, D)
    f_plus, f_minus = (tuple(RingElem(a, b, D) for a, b in zip(*f)) for f in (fp, fm))
    return PeriodPair(D, f_plus, f_minus)


def _check_period_invariants(fp, fm, D: int) -> None:
    """The guards on the numerator pairs (A, B) of f_plus and f_minus."""
    (pa, pb), (ma, mb) = fp, fm
    if (pa[0], pb[0], ma[0], mb[0]) != (2, 0, 2, 0):
        raise ProjectionError("period polynomial constant term is not 1")
    if ma != pa or mb != [-b for b in pb]:
        raise ProjectionError("conjugation does not swap f_plus and f_minus")
    A, B = _mul_pairs(pa, pb, ma, mb, D, len(pa) + len(ma) - 2)
    if any(B):
        raise ProjectionError("f_plus * f_minus has a nonzero sqrt(D) part")
    if A != [2 * c for c in _cyclotomic_coeffs(D)]:
        raise ProjectionError("f_plus * f_minus is not the cyclotomic polynomial Phi_D")


def _cyclotomic_coeffs(D: int) -> list[int]:
    """Coefficients of Phi_D(x) = prod_{d | D} (1 - x^d)^{mu(D/d)}, D > 1.

    The product of (1 - zeta^a x) over all units a mod D, so f_plus * f_minus
    must equal it.  Built from integers alone, and independent of the power
    sums behind the period polynomials: one product of Euler factors from
    partitions, truncated past the degree phi(D).
    """
    n = euler_phi(D)
    return _euler_product(((d, moebius(D // d)) for d in range(1, n + 1) if D % d == 0), n)
