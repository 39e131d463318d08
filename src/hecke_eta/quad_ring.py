"""Exact arithmetic in the ring of integers O_D = Z[(1+sqrt(D))/2].

Elements are stored as numerator pairs (a, b) over the fixed denominator 2,
so the value is (a + b*sqrt(D))/2.  Closure of O_D for D = 1 mod 4 is
equivalent to the single invariant a = b (mod 2), which every operation
checks.  Each element carries its discriminant D as a plain int.
"""

from __future__ import annotations

import math


class RingError(ValueError):
    """Invalid discriminant or ring element, or an operation mixing two D."""


class RingElem:
    """Element (a + b*sqrt(D))/2 of O_D with a = b (mod 2).

    Supports +, -, *, unary -, == and mixes with plain ints (promoted to
    (2n + 0*sqrt(D))/2).  All arithmetic is exact; mixing elements from
    different discriminants raises RingError.
    """

    __slots__ = ("num_a", "num_b", "D")

    def __init__(self, num_a: int, num_b: int, D: int):
        if D < 5 or D % 4 != 1:
            raise RingError(f"D={D} is not a discriminant = 1 mod 4, >= 5")
        if (num_a - num_b) % 2 != 0:
            raise RingError(
                f"parity violation: ({num_a} + {num_b}*sqrt({D}))/2 is not in O_D"
            )
        self.num_a = num_a
        self.num_b = num_b
        self.D = D

    @classmethod
    def from_int(cls, n: int, D: int) -> "RingElem":
        return cls(2 * n, 0, D)

    def _coerce(self, other) -> "RingElem":
        if isinstance(other, RingElem):
            if other.D != self.D:
                raise RingError(f"discriminant mismatch: D={self.D} vs D={other.D}")
            return other
        if isinstance(other, int):
            return RingElem(2 * other, 0, self.D)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElem(self.num_a + o.num_a, self.num_b + o.num_b, self.D)

    __radd__ = __add__

    def __neg__(self):
        return RingElem(-self.num_a, -self.num_b, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElem(self.num_a - o.num_a, self.num_b - o.num_b, self.D)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        D = self.D
        # ((a1+b1 sqrtD)/2)*((a2+b2 sqrtD)/2): numerator pair over 4, provably even.
        na = self.num_a * o.num_a + D * self.num_b * o.num_b
        nb = self.num_a * o.num_b + self.num_b * o.num_a
        qa, ra = divmod(na, 2)
        qb, rb = divmod(nb, 2)
        if ra or rb:
            raise RingError("internal corruption: product numerator not divisible by 2")
        return RingElem(qa, qb, self.D)

    __rmul__ = __mul__

    def conj(self) -> "RingElem":
        """Galois conjugate sqrt(D) -> -sqrt(D)."""
        return RingElem(self.num_a, -self.num_b, self.D)

    def norm(self) -> int:
        """Field norm x * conj(x) = (a^2 - D*b^2)/4, exact since a = b (mod 2)."""
        return (self.num_a * self.num_a - self.D * self.num_b * self.num_b) // 4

    def is_zero(self) -> bool:
        return self.num_a == 0 and self.num_b == 0

    def is_one(self) -> bool:
        return self.num_a == 2 and self.num_b == 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.num_a == 2 * other and self.num_b == 0
        if not isinstance(other, RingElem):
            return NotImplemented
        return (
            self.D == other.D
            and self.num_a == other.num_a
            and self.num_b == other.num_b
        )

    def __hash__(self):
        return hash((self.D, self.num_a, self.num_b))

    def __str__(self):
        return canonical_str(self)

    def __repr__(self):
        return f"RingElem({self.num_a}, {self.num_b}, D={self.D})"

    def to_json_dict(self) -> dict:
        return {"a": self.num_a, "b": self.num_b, "den": 2}


def canonical_str(x: RingElem) -> str:
    """Canonical textual form "(a+b*sqrt(D))/2" used by the CLI."""
    sign = "+" if x.num_b >= 0 else "-"
    return f"({x.num_a}{sign}{abs(x.num_b)}*sqrt({x.D}))/2"


def embed_midpoint(x: RingElem) -> tuple[int, int]:
    """(n, k) such that n / 2^k rounds like (a + b*sqrt(D))/2 to any float.

    For b != 0 the value is irrational, so 2^k * (a + b*sqrt(D)) lies strictly
    between integers L and L + 1, found with one isqrt.  With k = 64 + bitlen
    + bitlen(D), |L| >= 2^64 because |a + b*sqrt(D)| >= 4 / (|a| + |b|*sqrt(D))
    (a^2 - D*b^2 is a nonzero multiple of 4), so no rounding boundary of a
    float lies between them and the midpoint (2L + 1) / 2^(k+2) rounds alike.
    """
    a, b, D = x.num_a, x.num_b, x.D
    if b == 0:
        return a, 1
    k = 64 + max(a.bit_length(), b.bit_length()) + D.bit_length()
    r = math.isqrt(b * b * D << 2 * k)  # floor(|b| sqrt(D) 2^k)
    return 2 * ((a << k) + (r if b > 0 else -r - 1)) + 1, k + 2


def embed_real(x: RingElem) -> float:
    """(a + b*sqrt(D))/2 correctly rounded to a float, +-inf past its range."""
    n, k = embed_midpoint(x)
    try:
        return n / (1 << k)
    except OverflowError:
        return math.inf if n > 0 else -math.inf
