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
never enter the model ring: f_plus is expanded once in O_D from its
closed-form power sums, f_minus is its conjugate, and their product, the
norm (A^2 - D B^2)/4 of f_plus = (A + B sqrt(D))/2, is checked against
Phi_D, built from integer Euler factors in partitions, by qseries, which
owns every packed integer product.
"""

from collections import namedtuple

from .characters import _prime_row_product, euler_phi, moebius
from .partitions import _euler_product
from .qseries import _is_norm, euler_transform
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


def _trace_weights(D: int) -> tuple[int, ...]:
    """T(k) = trace of zeta_D^k from Q(zeta_D) to Q, for squarefree odd D:
    the Ramanujan sum c_D(k), the product over p | D of c_p(k), which is
    p - 1 where p | k and -1 elsewhere.  O(D) at C speed, so not cached."""
    return _prime_row_product(D, lambda p: [p - 1] + [-1] * (p - 1))


def trace(u: list[int]) -> int:
    """Field trace of the image of u in Q(zeta_D), D = len(u), extended
    Z-linearly."""
    w = _trace_weights(len(u))
    return sum(c * t for c, t in zip(u, w) if c)


def project_to_quad(u: list[int], chi) -> RingElem:
    """Project an element of the fixed field of H onto O_D, with chi the
    row of build_char_table (D = len(chi) = len(u)).

    Uses alpha = trace(u)/phi(D) and beta = trace(u*g)/(D*phi(D)) with g =
    sum_a chi_D(a) x^a the Gauss-sum element (sign convention +sqrt(D),
    D = 1 mod 4), in O(D): trace(u*g) = D sum_i chi(i) u_i, as
    Tr(zeta^i sqrt(D)) = D chi(i) for the primitive chi.  The numerator pair
    (2 alpha, 2 beta) is those two sums divided by phi(D)/2.  Non-exact
    division means u is not in Q(sqrt(D)): this is the correctness guard for
    the whole exact pipeline, so it raises rather than rounding.
    """
    D = len(chi)
    if len(u) != D:
        raise ValueError(f"dimension mismatch: {len(u)} vs {D}")
    half = euler_phi(D) // 2
    a, rem_a = divmod(trace(u), half)
    b, rem_b = divmod(sum(c * x for c, x in zip(u, chi) if c), half)
    if rem_a or rem_b:
        raise ProjectionError(
            f"element not in Q(sqrt({D})): trace sums not divisible by phi(D)/2 = {half}"
        )
    if (a - b) % 2 != 0:
        raise ProjectionError(f"element not in O_{D}: numerator pair ({a}, {b}) breaks parity")
    return RingElem(a, b, D)


class PeriodPair(namedtuple("PeriodPair", "D f_plus f_minus")):
    """f_plus = prod_{a in qr}(1 - zeta^a x), f_minus the nr analogue.

    Coefficients are tuples of O_D elements (RingElem), constant terms
    exactly 1; f_minus is the coefficientwise conjugate of f_plus.
    """

    __slots__ = ()


def _expand_period(chi, h: int) -> tuple[list[int], list[int]]:
    """Numerator pairs (A, B) of f_plus = prod (1 - zeta^a x) over the h
    residues a.

    Its logarithm is -sum_m p(m) x^m / m with the power sums
    p(m) = sum_a zeta^{am} = (c_D(m) + chi(m) sqrt(D))/2, since
    1_{chi = 1} = (1 + chi)/2 on units, c_D(m) = sum_{units} zeta^{am} is
    the Ramanujan sum (the trace weight of zeta^m) and the Gauss sum gives
    sum_a chi(a) zeta^{am} = chi(m) sqrt(D).  A wrong power sum breaks an
    exact division in euler_transform or leaves coefficient h+1 nonzero.
    """
    D = len(chi)
    c = _trace_weights(D)
    ms = range(1, h + 2)
    A, B = euler_transform([-c[m % D] for m in ms], [-chi[m % D] for m in ms], D, h + 1)
    if A[h + 1] or B[h + 1]:
        raise ProjectionError(f"period polynomial of D={D} has degree above {h}")
    return A[:-1], B[:-1]


def period_polynomials(chi) -> PeriodPair:
    """f_plus from its power sums, f_minus = (A, -B) as its conjugate, and
    the guards on both: constant term 1 and f_plus * f_minus = Phi_D, read
    as A*A - D B*B = 4 Phi_D on the numerator pairs (qseries._is_norm).
    chi is the row of build_char_table, D = len(chi)."""
    D = len(chi)
    h = euler_phi(D) // 2
    A, B = _expand_period(chi, h)
    if A[0] != 2 or B[0] != 0:
        raise ProjectionError("period polynomial constant term is not 1")
    if not _is_norm(A, B, D, [4 * c for c in _cyclotomic_coeffs(D)]):
        raise ProjectionError("f_plus * f_minus is not the cyclotomic polynomial Phi_D")
    f_plus = tuple(RingElem(a, b, D) for a, b in zip(A, B))
    f_minus = tuple(RingElem(a, -b, D) for a, b in zip(A, B))
    return PeriodPair(D, f_plus, f_minus)


def _cyclotomic_coeffs(D: int) -> list[int]:
    """Coefficients of Phi_D(x) = prod_{d | D} (1 - x^d)^{mu(D/d)}, D > 1.

    The product of (1 - zeta^a x) over all units a mod D, so f_plus * f_minus
    must equal it.  Built from integers alone, and independent of the power
    sums behind the period polynomials: one product of Euler factors from
    partitions, truncated past the degree phi(D).
    """
    n = euler_phi(D)
    return _euler_product(((d, moebius(D // d)) for d in range(1, n + 1) if D % d == 0), n)
