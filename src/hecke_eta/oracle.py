"""Independent recomputation of a_D(N) through partition convolutions.

Assembles, in the model ring Z[x]/(x^D - 1),

    F_NR(q,D)^2 * F_e(q,1) * Z(q) * prod_{a in qr} F_e(q, zeta^a)
                                  * prod_{b in nr} F_ord(q, zeta^b),

where F_e(q,theta) = prod(1 - theta q^n), F_ord = 1/F_e, and Z collects the
parts with chi_D(n) = 0 (for prime D this is exactly F_ord(q^D, 1)).  The
twisted factors are sigma_a(G), x -> x^a, over the residues a, with G =
F_e(q, zeta) F_ord(q, zeta^n0) for one non-residue n0 built from partition
tables; a n0 runs over the non-residues as a does over the residues.  All
are Kronecker-substituted integer products, phi(D)/2 + 1 of model-ring
series (CycSeries.mul_dense), whose rows are plain lists of D integers as
in cyclotomic.  Every assembled coefficient must project exactly onto O_D.
The results are the anti-bug cross-check for the Lambert-series recurrence
in qseries: no divisor sums, no Lambert coefficients, no O_D arithmetic
until the final projection; of qseries only the generic packed product
_convolve is shared.
"""

from __future__ import annotations

from math import gcd
from operator import add

from .characters import build_char_table
from .cyclotomic import project_to_quad
from .partitions import (
    distinct_length_distribution,
    length_distribution,
    p_nr_table,
    pentagonal_int_series,
)
from .qseries import _convolve
from .quad_ring import RingElem


class CycSeries:
    """Truncated q-series over the model ring: row k, a list of D integers,
    is the coefficient of q^k."""

    __slots__ = ("D", "prec", "coeffs")

    def __init__(self, D: int, coeffs: list[list[int]]):
        self.D = D
        self.coeffs = coeffs
        self.prec = len(coeffs) - 1

    def mul_dense(self, other: "CycSeries") -> "CycSeries":
        """Truncated product, by Kronecker substitution: one integer product.

        Each operand is flattened into prec + 1 rows of 2D - 1 slots, the D
        model-ring coefficients of a q-power followed by D - 1 zeros, so the
        linear product of two rows (degree at most 2D - 2) stays inside its
        row.  Row k of the product is then the unreduced sum of the row
        products of q-powers i + j = k, at most (prec + 1) D products per
        slot, and folding slot r + D onto slot r reduces it mod x^D - 1.
        """
        D, N = self.D, self.prec
        stride = 2 * D - 1
        size = (N + 1) * stride
        slots = _convolve(
            _flatten(self.coeffs, D, N), _flatten(other.coeffs, D, N), (N + 1) * D, size
        )
        out = []
        for o in range(0, size, stride):
            row = list(map(add, slots[o : o + D - 1], slots[o + D : o + stride]))
            row.append(slots[o + D - 1])
            out.append(row)
        return CycSeries(D, out)


def _flatten(rows: list[list[int]], D: int, N: int) -> list[int]:
    """Rows 0..N as one slot list, each padded by D - 1 zeros."""
    pad = [0] * (D - 1)
    out = []
    for row in rows[: N + 1]:
        out += row
        out += pad
    return out


def _twist(rows, a: int, D: int) -> CycSeries:
    """sigma_a: x -> x^a applied to each row of model-ring coefficients, for
    a unit a mod D: the entry at slot r moves to slot a r, so slot t takes
    the entry at r = t / a."""
    a_inv = pow(a, -1, D)
    idx = [a_inv * t % D for t in range(D)]
    return CycSeries(D, [list(map(row.__getitem__, idx)) for row in rows])


def _chi_zero_series(D: int, N: int) -> list[int]:
    """prod over n <= N with gcd(n, D) > 1 of (1 - q^n)^{-1}.

    For prime D these n are the multiples of D and the series is
    F_ord(q^D, 1); the gcd form keeps composite squarefree D correct.
    """
    out = [0] * (N + 1)
    out[0] = 1
    for part in range(1, N + 1):
        if gcd(part, D) > 1:
            for k in range(part, N + 1):
                out[k] += out[k - part]
    return out


def a_via_convolution(D: int, N: int) -> list[RingElem]:
    """a_D(0..N) via the partition-convolution route, fully independent of
    the direct q-series product."""
    ct = build_char_table(D)
    if N < 0:
        raise ValueError("order must be >= 0")

    pnr = p_nr_table(ct, N)
    base = _convolve(pnr, pnr, N + 1, N + 1)                       # F_NR^2
    base = _convolve(base, _chi_zero_series(D, N), N + 1, N + 1)   # chi = 0 parts
    base = _convolve(base, pentagonal_int_series(N), N + 1, N + 1)  # F_e(q, 1)

    # G = F_e(q, zeta) F_ord(q, zeta^n0); sigma_a(G) for a in qr covers every
    # twisted factor once
    f_e = CycSeries(D, distinct_length_distribution(D, N))
    G = f_e.mul_dense(_twist(length_distribution(D, N), ct.nr_list[0], D))
    pad = [0] * (D - 1)
    series = CycSeries(D, [[c, *pad] for c in base])
    for a in ct.qr_list:
        series = series.mul_dense(_twist(G.coeffs, a, D))

    return [project_to_quad(u, ct) for u in series.coeffs]


def compare_with_eta(D: int, N: int):
    """(matches, mismatches) where mismatches lists (N, direct, oracle)."""
    from .qseries import eta_series

    direct = eta_series(D, N).coeffs
    conv = a_via_convolution(D, N)
    mismatches = [
        (k, direct[k], conv[k]) for k in range(N + 1) if direct[k] != conv[k]
    ]
    return len(direct) - len(mismatches), mismatches
