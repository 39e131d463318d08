"""Elements of the ring of integers O_D = Z[(1+sqrt(D))/2] at the API edge.

An element is stored as a numerator pair (a, b) over the fixed denominator
2, so the value is (a + b*sqrt(D))/2.  Membership of O_D for D = 1 mod 4 is
the single invariant a = b (mod 2), which the constructor checks.  Each
element carries its discriminant D as a plain int.  The library computes on
plain numerator-pair integer lists (qseries); RingElem is the checked value
those results are handed out as, compared, embedded and printed.
"""

import math


class RingError(ValueError):
    """Invalid discriminant or ring element, or an inexact division in a
    computation on numerator pairs."""


class RingElem:
    """Element (a + b*sqrt(D))/2 of O_D with a = b (mod 2).

    A checked value: the constructor rejects an invalid D or pair, and two
    elements are equal when their D and numerator pairs are.
    """

    __slots__ = ("num_a", "num_b", "D")

    def __init__(self, num_a: int, num_b: int, D: int):
        if D < 5 or D % 4 != 1:
            raise RingError(f"D={D} is not a discriminant = 1 mod 4, >= 5")
        if (num_a - num_b) % 2 != 0:
            raise RingError(f"parity violation: ({num_a} + {num_b}*sqrt({D}))/2 is not in O_D")
        self.num_a = num_a
        self.num_b = num_b
        self.D = D

    def conj(self) -> "RingElem":
        """Galois conjugate sqrt(D) -> -sqrt(D)."""
        return RingElem(self.num_a, -self.num_b, self.D)

    def is_zero(self) -> bool:
        return self.num_a == 0 and self.num_b == 0

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.D == other.D and self.num_a == other.num_a and self.num_b == other.num_b

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
