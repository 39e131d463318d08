"""Independent recomputation of a_D(N) through partition convolutions.

Assembles, in the model ring Z[x]/(x^D - 1),

    Phi(q) * prod_{a in qr} F_e(q, zeta^a) * prod_{b in nr} F_ord(q, zeta^b),

where F_e(q,theta) = prod(1 - theta q^n), F_ord = 1/F_e, and the integer
base Phi = prod (1 - q^n)^{chi_D(n)} is the untwisted half of the paper's
eta_D = q^m Phi Phi#.  Phi is one product of Euler factors from partitions;
it equals F_NR(q,D)^2 F_e(q,1) Z(q), with F_NR the partitions into
non-residue parts and Z those into parts with chi_D(n) = 0.  The twisted
factors are sigma_a(G), x -> x^a, over the residues a, with G = F_e(q, zeta)
F_ord(q, zeta^n0) for one non-residue n0 built from partition tables; a n0
runs over the non-residues as a does over the residues.  The residues are a
subgroup, so their product is a norm, built by doubling along a chain of
subgroups in at most 2 log2(phi(D)/2) products.  Those products, of rows
that are plain lists of D integers as in cyclotomic (CycSeries.mul_dense),
and the one by Phi live in qseries next to the kernel's products, and the
oracle calls no kernel function.  Every assembled coefficient must project
exactly onto O_D.  The results are the anti-bug cross-check for the
Lambert-series recurrence: no divisor sums, no Lambert coefficients, no O_D
arithmetic until the final projection.
"""

from math import log

from .characters import build_char_table
from .cyclotomic import project_to_quad
from .partitions import _euler_product, distinct_length_distribution, length_distribution
from .qseries import _mul_rows, _times_int_series
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
        """Truncated product, by the two-point product qseries._mul_rows."""
        return CycSeries(self.D, _mul_rows(self.coeffs, other.coeffs, self.D))


def _twist(rows, a: int, D: int) -> CycSeries:
    """sigma_a: x -> x^a applied to each row of model-ring coefficients, for
    a unit a mod D: the entry at slot r moves to slot a r, so slot t takes
    the entry at r = t / a."""
    a_inv = pow(a, -1, D)
    idx = [a_inv * t % D for t in range(D)]
    return CycSeries(D, [list(map(row.__getitem__, idx)) for row in rows])


def _norm(G: CycSeries, H: list[int]) -> CycSeries:
    """prod over h in H of sigma_h(G), for a subgroup H of the units mod D.

    sigma_a sigma_b = sigma_ab, so the product is built along a chain of
    subgroups S of H, holding P = prod over s in S of sigma_s(G).  For g in H
    outside S, with k the least exponent that puts g^k in S, the cosets g^j S
    (j < k) make up the subgroup generated by S and g, and P becomes
    prod_{j<k} sigma_{g^j}(P) by doubling along the bits of k: R_e, the
    product over j < e, gives R_2e = R_e sigma_{g^e}(R_e) and R_{e+1} =
    R_e sigma_{g^e}(P).  That is floor(log2 k) + popcount(k) - 1 products
    per step and at most 2 log2 |H| in all, against |H| - 1 one by one.
    """
    D = G.D
    S, P = {1}, G
    for g in H:
        if g in S:
            continue
        powers = [1]  # g^j for j < k
        while (x := powers[-1] * g % D) not in S:
            powers.append(x)
        R, e = P, 1
        for bit in bin(len(powers))[3:]:
            R = R.mul_dense(_twist(R.coeffs, powers[e], D))
            e *= 2
            if bit == "1":
                R = R.mul_dense(_twist(P.coeffs, powers[e], D))
                e += 1
        S = {s * x % D for s in S for x in powers}
        P = R
    return P


def a_via_convolution(D: int, N: int) -> list[RingElem]:
    """a_D(0..N) via the partition-convolution route, fully independent of
    the direct q-series product."""
    chi = build_char_table(D)
    if N < 0:
        raise ValueError("order must be >= 0")

    base = _euler_product(((n, chi[n % D]) for n in range(1, N + 1)), N)

    # G = F_e(q, zeta) F_ord(q, zeta^n0); sigma_a(G) for a in qr covers every
    # twisted factor once
    f_e = CycSeries(D, distinct_length_distribution(D, N))
    n0 = chi.index(-1)
    G = f_e.mul_dense(_twist(length_distribution(D, N), n0, D))
    qr = [a for a in range(1, D) if chi[a] == 1]
    rows = _times_int_series(_norm(G, qr).coeffs, base, D)
    return [project_to_quad(u, chi) for u in rows]


def compare_with_eta(D: int, N: int):
    """(matches, mismatches) where mismatches lists (N, direct, oracle)."""
    from .qseries import eta_series

    direct = eta_series(D, N).coeffs
    conv = a_via_convolution(D, N)
    mismatches = [
        (k, direct[k], conv[k]) for k in range(N + 1) if direct[k] != conv[k]
    ]
    return len(direct) - len(mismatches), mismatches


def compare_s(D: int, N: int) -> float:
    """Predicted seconds of compare_with_eta(D, N) end to end: about
    2 log2(phi(D)/2) model-ring products, each two Kronecker products of
    (N + 1) D slots, on coefficients that grow with N, faster the more
    residues the norm multiplies, hence the exponent of N + 1 that grows
    with log D.  It was fitted, with a 1.2x margin for the spread of
    repeated runs, to the 45 runs, D 5..100049, N 1..5000, up to 157 s and
    93 MB, that took at least 1 s as single products of (N + 1)(2D - 1)
    zero-padded slots, so it over-predicts 3.9-9.3x the two-point products
    with slots sized by the largest sum they keep: end to end with the time
    budget (and above 88577 the --D cap) lifted, in s measured/predicted by
    (D, N): (5, 5000) 15/60, (13, 2000) 15/84, (41, 800) 24/151, (101, 400)
    24/221, (293, 20) 0.43/1.8, (293, 80) 4.9-5.2/46, (1009, 40) 13/93,
    (4845, 10) 8.0/54, (10001, 10) 39/194, (30005, 3) 14/76, (88577, 1)
    13/60, (100049, 1) 15/73.  The constant stays: the --D cap of
    oracle-check rests on its refusing N = 1 past it."""
    return 2.1e-7 * D**1.53 * (N + 1) ** (1.84 + 0.097 * log(D))
