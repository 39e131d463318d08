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
subgroups in at most 2 log2(phi(D)/2) products.  All are
Kronecker-substituted integer products on rows packed at stride D with no
padding: those of model-ring series (CycSeries.mul_dense), whose rows are
plain lists of D integers as in cyclotomic, take two half-length products at
+-y and split the row products by parity; the one by Phi packs Phi with
slots D times as wide.  Every assembled coefficient must project exactly
onto O_D.
The results are the anti-bug cross-check for the Lambert-series recurrence
in qseries: no divisor sums, no Lambert coefficients, no O_D arithmetic
until the final projection; of qseries only the generic slot helpers
(_conv_bytes, _bias, _pack, _unpack) are shared.
"""

from math import log

from .characters import build_char_table
from .cyclotomic import project_to_quad
from .partitions import _euler_product, distinct_length_distribution, length_distribution
from .qseries import _bias, _conv_bytes, _pack, _unpack
from .quad_ring import RingElem, RingError


class CycSeries:
    """Truncated q-series over the model ring: row k, a list of D integers,
    is the coefficient of q^k."""

    __slots__ = ("D", "prec", "coeffs")

    def __init__(self, D: int, coeffs: list[list[int]]):
        self.D = D
        self.coeffs = coeffs
        self.prec = len(coeffs) - 1

    def mul_dense(self, other: "CycSeries") -> "CycSeries":
        """Truncated product, by Kronecker substitution at the two points y
        and -y, y = 2^(8 wb D).

        An operand packs as U(y) = sum_i u_i(X) y^i, X = 2^(8 wb): its prec + 1
        rows of D slots at stride D, with no padding.  The row product
        c_k = sum_{i+j=k} u_i v_j has degree up to 2D - 2 in X; lo_k is its
        slots 0..D-1 and hi_k its slots D..2D-2, so c_k = lo_k + y hi_k.  Row
        k of W+ = U(y) V(y) is then lo_k + hi_{k-1}, and row k of
        W- = U(-y) V(-y) is (-1)^k (lo_k - hi_{k-1}); W+ + W- holds 2 lo_k in
        its even rows and 2 hi_{k-1} in its odd ones, W+ - W- the other way
        round.  Both sums are halved slot by slot, and an odd slot raises
        RingError, as does a nonzero slot where hi must be zero: all of
        hi_{-1}, and slot D - 1 of each hi_k, which would be degree 2D - 1.
        Row k of the product, c_k mod x^D - 1, is lo_k + hi_k: the rows of
        lo and hi are picked from the two halves by parity and added as
        integers, so only the (prec + 1) D result slots are unpacked.  Every
        slot of lo_k, hi_k and lo_k + hi_k is at most
        B_k = sum_{i+j=k} |u_i|_1 max|v_j|, as a slot of u_i meets at most one
        of v_j in each.  Each slot of W+ + W- and W+ - W-, the only sums read,
        holds 2 lo_k or 2 hi_{k-1} alone; their rows 0..prec + 1 are masked and
        parity-checked, so the slots hold 2 B_k for k <= prec + 1 and the
        operands (_conv_bytes), and slots above the mask only carry upward.
        """
        D, N = self.D, self.prec
        u, v = self.coeffs, other.coeffs[: N + 1]
        n = (N + 1) * D
        norms = [2 * sum(map(abs, row)) for row in u]
        wb = _conv_bytes(norms, [max(map(abs, row)) for row in v], N + 2)
        row_bits = 8 * wb * D
        even = _even_rows(wb * D, N + 2)
        u_pos, u_neg = _pack_pm(u, wb, even)
        v_pos, v_neg = _pack_pm(v, wb, even)
        # each big integer is dropped once used, so that few are live at once
        w_pos = u_pos * v_pos
        del u_pos, v_pos
        w_neg = u_neg * v_neg
        del u_neg, v_neg
        # rows 0..N + 1 of both sums, every slot biased by 2^(8 wb - 1)
        lift = _bias(wb, n + D)
        mask = (1 << (row_bits * (N + 2))) - 1
        s_even = (w_pos + w_neg + lift) & mask
        s_odd = (w_pos - w_neg + lift) & mask
        del w_pos, w_neg
        if (s_even | s_odd) & (lift >> (8 * wb - 1)):
            raise RingError("internal corruption: odd slot in a two-point product")
        # halved: no set bit crosses a slot, and each bias halves with its slot
        s_even >>= 1
        s_odd >>= 1
        odd = mask ^ even
        lo = (s_even & even) | (s_odd & odd)  # row k: lo_k
        hi = (s_even & odd) | (s_odd & even)  # row k: hi_{k-1}
        del s_even, s_odd
        zero = _known_zero(wb, D, N + 2)
        if hi & zero != (lift >> 1) & zero:
            raise RingError("internal corruption: a two-point product fills a slot past 2D - 2")
        # the two half biases make one; row N + 1 of lo lies above the n
        # slots that _unpack keeps
        slots = _unpack(lo + (hi >> row_bits) - _bias(wb, n), wb, 0, n)
        return CycSeries(D, [slots[o : o + D] for o in range(0, n, D)])


def _even_rows(row_bytes: int, rows: int) -> int:
    """All ones on the even rows of row_bytes bytes each, of rows rows."""
    ones = b"\xff" * row_bytes
    return int.from_bytes((ones + bytes(row_bytes)) * (rows // 2) + ones * (rows % 2), "little")


def _known_zero(wb: int, D: int, rows: int) -> int:
    """All ones on the slots of hi_{k-1}, k = 0..rows-1, that are zero in
    every product: all of hi_{-1}, and slot D - 1 of the others, as a row
    product has no slot 2D - 1."""
    ones = b"\xff" * wb
    return int.from_bytes(ones * D + (bytes(wb * (D - 1)) + ones) * (rows - 1), "little")


def _pack_pm(rows: list[list[int]], wb: int, even: int) -> tuple[int, int]:
    """U(y) and U(-y) for rows of slots of wb bytes, with even from
    _even_rows: U(-y) = 2E - U(y), where E, the even rows alone, is the
    biased U(y) masked to its even rows."""
    u = _pack([c for row in rows for c in row], wb)
    bias = _bias(wb, len(rows) * len(rows[0]))
    e = ((u + bias) & even) - (bias & even)
    return u, 2 * e - u


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


def _times_int_series(rows: list[list[int]], base: list[int], D: int) -> list[list[int]]:
    """Rows 0..N of a model-ring series times the integer series base, of
    the same length, by one integer product: base has no zeta part, so
    packed with slots D times as wide it sits at row stride D and meets
    every slot of the unpadded rows alone.  Slot s of row k is at most
    sum_{i+j=k} max|rows_i| |base_j|, and slots past row N only carry upward."""
    n = len(rows) * D
    wb = _conv_bytes([max(map(abs, row)) for row in rows], list(map(abs, base)), len(rows))
    slots = _unpack(_pack([c for row in rows for c in row], wb) * _pack(base, wb * D), wb, 0, n)
    return [slots[o : o + D] for o in range(0, n, D)]


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
