"""Exact arithmetic in the model ring Z[x]/(x^D - 1) for Z[zeta_D], and the
period polynomials.

Working modulo x^D - 1 instead of the cyclotomic polynomial keeps
multiplication a plain cyclic convolution; the redundancy (for D prime the
all-ones vector maps to zero) is absorbed by the trace functional, which is
well defined on images.  The model ring, the trace, the Gauss-sum element
and the projection of fixed-field elements onto O_D serve the convolution
oracle, which multiplies whole series of model-ring elements by Kronecker
substitution; cyc_mul, one cyclic convolution of D^2 products, now serves
only the projection.  The period polynomials f_plus / f_minus never enter
the model ring: their coefficients in O_D follow from closed-form power sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, sub

from .characters import CharTable, euler_phi, moebius
from .qseries import _mul_pairs, euler_transform
from .quad_ring import RingElem


class ProjectionError(ValueError):
    """Element is not (recognizably) in Q(sqrt(D))."""


class CycPoly:
    """Integer vector of length D; index k stands for zeta_D^k."""

    __slots__ = ("D", "coeffs")

    def __init__(self, D: int, coeffs=None):
        self.D = D
        if coeffs is None:
            self.coeffs = [0] * D
        else:
            coeffs = list(coeffs)
            if len(coeffs) != D:
                raise ValueError(f"need exactly {D} coefficients, got {len(coeffs)}")
            self.coeffs = coeffs

    @classmethod
    def one(cls, D: int) -> "CycPoly":
        u = cls(D)
        u.coeffs[0] = 1
        return u

    @classmethod
    def monomial(cls, D: int, k: int, c: int = 1) -> "CycPoly":
        u = cls(D)
        u.coeffs[k % D] = c
        return u

    def copy(self) -> "CycPoly":
        return CycPoly(self.D, self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def add_shifted(self, other: "CycPoly", shift: int, scale: int = 1) -> None:
        """In-place self += scale * x^shift * other (exponents mod D)."""
        s = shift % self.D
        oc = other.coeffs
        rotated = oc[-s:] + oc[:-s] if s else oc  # rotated[j] = oc[(j - s) % D]
        if scale == -1:
            self.coeffs[:] = map(sub, self.coeffs, rotated)
        else:
            if scale != 1:
                rotated = [scale * c for c in rotated]
            self.coeffs[:] = map(add, self.coeffs, rotated)

    def __add__(self, other: "CycPoly") -> "CycPoly":
        self._check(other)
        return CycPoly(self.D, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def _check(self, other: "CycPoly") -> None:
        if self.D != other.D:
            raise ValueError(f"dimension mismatch: D={self.D} vs D={other.D}")

    def __eq__(self, other):
        return (
            isinstance(other, CycPoly)
            and self.D == other.D
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"CycPoly(D={self.D}, {self.coeffs})"


def cyc_mul(u: CycPoly, v: CycPoly) -> CycPoly:
    """Cyclic convolution (u*v)[k] = sum_{i+j=k mod D} u[i]v[j]."""
    u._check(v)
    D = u.D
    out = [0] * D
    uc, vc = u.coeffs, v.coeffs
    for i in range(D):
        a = uc[i]
        if a == 0:
            continue
        for j in range(D):
            b = vc[j]
            if b:
                k = i + j
                if k >= D:
                    k -= D
                out[k] += a * b
    return CycPoly(D, out)


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


def trace(u: CycPoly) -> int:
    """Field trace of the image of u in Q(zeta_D), extended Z-linearly."""
    w = _trace_weights(u.D)
    return sum(c * t for c, t in zip(u.coeffs, w) if c)


@lru_cache(maxsize=None)
def _gauss_cached(D: int) -> CycPoly:
    from .characters import build_char_table

    ct = build_char_table(D)
    g = CycPoly(D)
    for a in range(1, D):
        g.coeffs[a] = ct.values[a]
    return g


def gauss_element(ct: CharTable) -> CycPoly:
    """The Gauss-sum element sum_a chi_D(a) x^a; evaluates to +sqrt(D)."""
    return _gauss_cached(ct.D).copy()


def project_to_quad(u: CycPoly, ct: CharTable) -> RingElem:
    """Project an element of the fixed field of H onto O_D.

    Uses alpha = trace(u)/phi(D) and beta = trace(u*g)/(D*phi(D)) with g the
    Gauss-sum element (sign convention +sqrt(D), D = 1 mod 4).  Non-exact
    division means u is not in Q(sqrt(D)): this is the correctness guard for
    the whole exact pipeline, so it raises rather than rounding.
    """
    if u.D != ct.D:
        raise ValueError(f"dimension mismatch: {u.D} vs {ct.D}")
    D = ct.D
    phi = euler_phi(D)
    g = _gauss_cached(D)
    alpha2 = Fraction(2 * trace(u), phi)
    beta2 = Fraction(2 * trace(cyc_mul(u, g)), D * phi)
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


@dataclass(frozen=True)
class PeriodPair:
    """f_plus = prod_{a in qr}(1 - zeta^a x), f_minus the nr analogue.

    Coefficients are O_D elements, constant terms exactly 1, and
    coefficientwise conjugation swaps the two polynomials.
    """

    D: int
    f_plus: tuple[RingElem, ...]
    f_minus: tuple[RingElem, ...]


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
    fp = _expand_period(ct, 1, len(ct.qr_list))
    fm = _expand_period(ct, -1, len(ct.nr_list))
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
    _, B = _mul_pairs(pa, pb, ma, mb, D, len(pa) + len(ma) - 2)
    if any(B):
        raise ProjectionError("f_plus * f_minus has a nonzero sqrt(D) part")
