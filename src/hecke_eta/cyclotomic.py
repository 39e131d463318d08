"""Exact arithmetic in the model ring Z[x]/(x^D - 1) for Z[zeta_D].

Working modulo x^D - 1 instead of the cyclotomic polynomial keeps
multiplication a plain cyclic convolution; the redundancy (for D prime the
all-ones vector maps to zero) is absorbed by the trace functional, which is
well defined on images.  The module provides the trace, the Gauss-sum
element, the projection of fixed-field elements onto O_D, and the period
polynomials f_plus / f_minus whose coefficients land in O_D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .characters import CharTable, euler_phi, moebius
from .quad_ring import RingElem, ring_ctx


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
        return all(c == 0 for c in self.coeffs)

    def add_shifted(self, other: "CycPoly", shift: int, scale: int = 1) -> None:
        """In-place self += scale * x^shift * other (exponents mod D)."""
        D = self.D
        s = shift % D
        oc = other.coeffs
        c = self.coeffs
        for i in range(D):
            c[(i + s) % D] += scale * oc[i]

    def __add__(self, other: "CycPoly") -> "CycPoly":
        self._check(other)
        return CycPoly(self.D, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "CycPoly") -> "CycPoly":
        self._check(other)
        return CycPoly(self.D, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CycPoly":
        return CycPoly(self.D, [-a for a in self.coeffs])

    def scale(self, c: int) -> "CycPoly":
        return CycPoly(self.D, [c * a for a in self.coeffs])

    def _check(self, other: "CycPoly") -> None:
        if self.D != other.D:
            raise ValueError(f"dimension mismatch: D={self.D} vs D={other.D}")

    def __eq__(self, other):
        return (
            isinstance(other, CycPoly)
            and self.D == other.D
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.D, tuple(self.coeffs)))

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
    return RingElem(a, b, ring_ctx(D))


@dataclass(frozen=True)
class PeriodPair:
    """f_plus = prod_{a in qr}(1 - zeta^a x), f_minus the nr analogue.

    Coefficients are O_D elements, constant terms exactly 1, and
    coefficientwise conjugation swaps the two polynomials.
    """

    D: int
    f_plus: tuple[RingElem, ...]
    f_minus: tuple[RingElem, ...]


def _expand_linear_product(exponents, D: int) -> list[CycPoly]:
    """Coefficients (as CycPoly) of prod_a (1 - x * zeta^a)."""
    coeffs = [CycPoly.one(D)]
    for a in exponents:
        coeffs.append(CycPoly(D))
        # multiply by (1 - zeta^a x): new[i] = old[i] - zeta^a old[i-1]
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i].add_shifted(coeffs[i - 1], a, -1)
    return coeffs


def period_polynomials(ct: CharTable) -> PeriodPair:
    """Expand f_plus and f_minus and project every coefficient onto O_D."""
    fp = [project_to_quad(c, ct) for c in _expand_linear_product(ct.qr_list, ct.D)]
    fm = [project_to_quad(c, ct) for c in _expand_linear_product(ct.nr_list, ct.D)]
    pair = PeriodPair(D=ct.D, f_plus=tuple(fp), f_minus=tuple(fm))
    _check_period_invariants(pair, ct)
    return pair


def _check_period_invariants(pair: PeriodPair, ct: CharTable) -> None:
    if not pair.f_plus[0].is_one() or not pair.f_minus[0].is_one():
        raise ProjectionError("period polynomial constant term is not 1")
    if tuple(c.conj() for c in pair.f_plus) != pair.f_minus:
        raise ProjectionError("conjugation does not swap f_plus and f_minus")
    prod = _poly_mul(pair.f_plus, pair.f_minus)
    if any(c.num_b != 0 for c in prod):
        raise ProjectionError("f_plus * f_minus has a nonzero sqrt(D) part")


def _poly_mul(p, q) -> list[RingElem]:
    """Dense product of two RingElem polynomials (plain lists, low degree)."""
    ctx = p[0].ctx
    out = [RingElem.from_int(0, ctx) for _ in range(len(p) + len(q) - 1)]
    for i, pi in enumerate(p):
        if pi.is_zero():
            continue
        for j, qj in enumerate(q):
            if not qj.is_zero():
                out[i + j] = out[i + j] + pi * qj
    return out
