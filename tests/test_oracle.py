import math
import random

import pytest
from oracles import euler_product_plain, mul_dense_plain, residues

from hecke_eta import oracle, qseries
from hecke_eta.characters import build_char_table, euler_phi
from hecke_eta.cyclotomic import ProjectionError, project_to_quad
from hecke_eta.golden import golden_coefficients
from hecke_eta.oracle import CycSeries, a_via_convolution, compare_with_eta
from hecke_eta.quad_ring import RingElem, RingError


class TestConvolutionOracle:
    def test_order_zero(self):
        assert a_via_convolution(5, 0) == [RingElem(2, 0, 5)]
        assert a_via_convolution(13, 0) == [RingElem(2, 0, 13)]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            a_via_convolution(5, -1)

    def test_table_entries(self):
        conv = a_via_convolution(5, 1)
        assert conv[1] == RingElem(-2, -2, 5)
        conv13 = a_via_convolution(13, 3)
        assert conv13[3] == RingElem(-4, -8, 13)

    def test_matches_eta_series_d5(self):
        matches, mismatches = compare_with_eta(5, 40)
        assert mismatches == []
        assert matches == 41

    def test_matches_eta_series_d13(self):
        matches, mismatches = compare_with_eta(13, 25)
        assert mismatches == []

    def test_matches_eta_series_d17(self):
        matches, mismatches = compare_with_eta(17, 12)
        assert mismatches == []

    def test_matches_eta_series_composite_d21(self):
        # gcd-based chi = 0 factor keeps composite squarefree D exact
        matches, mismatches = compare_with_eta(21, 15)
        assert mismatches == []

    def test_every_assembled_coefficient_projects(self):
        # projection raising nowhere is the executable fixed-field claim
        out = a_via_convolution(17, 10)
        assert len(out) == 11
        for c in out:
            assert (c.num_a - c.num_b) % 2 == 0


class TestGaloisGuard:
    def test_unfixed_element_is_rejected(self):
        chi = build_char_table(5)
        with pytest.raises(ProjectionError):
            project_to_quad([0, 0, 1, 0, 0], chi)

    @staticmethod
    def _assert_orbit_constant(monkeypatch, D, N):
        """Every coefficient a_via_convolution assembles, the product of the
        integer factors and sigma_a(G) over the residues a, is fixed by the
        residue subgroup: constant on the qr and on the nr orbits (the units
        mod D where chi is +1 and -1)."""
        chi = build_char_table(D)
        assembled = []

        # the projection is left out, so only the orbit check can fail
        monkeypatch.setattr(oracle, "project_to_quad", lambda u, chi: assembled.append(u))
        a_via_convolution(D, N)
        assert len(assembled) == N + 1
        qr, nr = residues(chi, 1), residues(chi, -1)
        for u in assembled:
            qr_vals = {u[a] for a in qr}
            nr_vals = {u[b] for b in nr}
            assert len(qr_vals) == 1 and len(nr_vals) == 1

    def test_series_coefficients_are_orbit_constant_for_prime_d(self, monkeypatch):
        self._assert_orbit_constant(monkeypatch, 13, 8)

    def test_series_coefficients_are_orbit_constant_for_composite_d(self, monkeypatch):
        self._assert_orbit_constant(monkeypatch, 21, 8)


class TestAssembly:
    @pytest.mark.parametrize("D, N", [(5, 12), (13, 6), (21, 5), (105, 2)])
    def test_one_product_per_twisted_factor_pair(self, monkeypatch, D, N):
        """The phi(D)/2 twisted factor pairs take one model-ring product for
        G and floor(log2 k) + popcount(k) - 1 per step of the subgroup chain
        (k = 2; 3 then 2; 3 then 2; 12 then 2), at most 1 + 2 log2(phi(D)/2)
        in all."""
        calls = []
        mul_dense = CycSeries.mul_dense

        def counted(self, other):
            calls.append(1)
            return mul_dense(self, other)

        monkeypatch.setattr(CycSeries, "mul_dense", counted)
        out = a_via_convolution(D, N)
        assert len(calls) == {5: 2, 13: 4, 21: 4, 105: 6}[D]
        assert len(calls) <= 1 + 2 * math.log2(euler_phi(D) // 2)
        assert out == list(qseries.eta_series(D, N).coeffs)

    @staticmethod
    def _base(monkeypatch, D, N):
        """The integer series a_via_convolution multiplies the twisted
        product by."""
        seen = []
        times_int_series = oracle._times_int_series

        def recorded(rows, base, D):
            seen.append(base)
            return times_int_series(rows, base, D)

        monkeypatch.setattr(oracle, "_times_int_series", recorded)
        a_via_convolution(D, N)
        (base,) = seen
        return base

    @pytest.mark.parametrize("D, N", [(5, 60), (13, 40), (21, 30), (105, 12)])
    def test_base_is_phi(self, monkeypatch, D, N):
        """The base is Phi = prod (1 - q^n)^{chi(n)}, for prime and composite D."""
        chi = build_char_table(D)
        phi = euler_product_plain([(n, chi[n % D]) for n in range(1, N + 1)], N)
        assert self._base(monkeypatch, D, N) == phi

    def test_base_is_the_rogers_ramanujan_quotient(self, monkeypatch):
        """At D = 5, Phi = H/G with the Rogers-Ramanujan sums
        G = sum q^{n^2}/(q;q)_n and H = sum q^{n^2+n}/(q;q)_n."""
        N = 80
        G = [0] * (N + 1)
        H = [0] * (N + 1)
        inv = [1] + [0] * N  # 1/(q;q)_n, partitions into parts <= n
        for n in range(N + 1):
            if n:
                for k in range(n, N + 1):
                    inv[k] += inv[k - n]
            for shift, out in ((n * n, G), (n * n + n, H)):
                for k in range(N + 1 - shift):
                    out[k + shift] += inv[k]
        base = self._base(monkeypatch, 5, N)
        assert [sum(base[i] * G[k - i] for i in range(k + 1)) for k in range(N + 1)] == H


def _random_series(rng, D, prec, bits, zero_rows=0.2):
    """Signed coefficients below 2^bits, about a zero_rows share of rows zero."""
    rows = []
    for _ in range(prec + 1):
        if rng.random() < zero_rows:
            rows.append([0] * D)
        else:
            rows.append([rng.randrange(-(2**bits) + 1, 2**bits) for _ in range(D)])
    return CycSeries(D, rows)


def _constant_series(D, prec, value):
    return CycSeries(D, [[value] * D for _ in range(prec + 1)])


class TestPackedProduct:
    """CycSeries.mul_dense (Kronecker substitution at y and -y) against the
    double loop of cyclic convolutions in tests/oracles.py, and its guards."""

    @pytest.mark.parametrize(
        "D, prec",
        [(5, 0), (5, 1), (5, 40), (13, 1), (13, 38), (21, 0), (21, 1), (21, 12),
         (33, 1), (33, 6), (41, 0), (41, 1), (41, 4)],
    )
    def test_random_signed_series(self, D, prec):
        rng = random.Random(1000 * D + prec)
        for bits in (1, 64, 300):
            f = _random_series(rng, D, prec, bits)
            g = _random_series(rng, D, prec, rng.choice((1, 20, 300)))
            assert f.mul_dense(g).coeffs == mul_dense_plain(f, g).coeffs

    @pytest.mark.parametrize(
        "D, prec",
        [(5, 0), (5, 11), (5, 12), (13, 0), (13, 3), (13, 4), (21, 0), (21, 1), (21, 2),
         (33, 0), (33, 1), (33, 2), (41, 0), (41, 3), (41, 4)],
    )
    @pytest.mark.parametrize("bits", range(296, 304))
    def test_extreme_slots(self, D, prec, bits):
        """Every coefficient at -(2^bits - 1) on one side and both signs on
        the other.  Then B_k, the slot bound sum_{i+j=k} |u_i|_1 max|v_j|,
        is largest at k = prec, where lo_prec reaches it in its slot D - 1,
        and 2 B_prec, the bound the width is taken from, is reached in the
        sum W+ + W- or W+ - W- that holds lo_prec: which one is set by the
        parity of prec, so both an odd and an even row count are covered.
        Eight consecutive widths cover every rounding of the bound to whole
        bytes."""
        M = 2**bits - 1
        f = _constant_series(D, prec, -M)
        for g in (_constant_series(D, prec, -M), _constant_series(D, prec, M)):
            assert f.mul_dense(g).coeffs == mul_dense_plain(f, g).coeffs

    @pytest.mark.parametrize("D, prec", [(5, 0), (5, 7), (13, 3), (41, 2)])
    @pytest.mark.parametrize("bits", range(296, 304))
    def test_slots_reach_the_bound_at_row_zero(self, D, prec, bits):
        """Rows that shrink 2^16-fold from one to the next, so 2 B_0 is the
        largest bound, reached by 2 lo_0 in slot D - 1 of W+ + W-.  Only u's
        width steps with bits, so eight widths put the bound at every bit
        of a byte."""
        f = CycSeries(D, [[-((2**bits - 1) >> 16 * i)] * D for i in range(prec + 1)])
        for sign in (1, -1):
            g = CycSeries(D, [[sign * ((2**300 - 1) >> 16 * i)] * D for i in range(prec + 1)])
            assert f.mul_dense(g).coeffs == mul_dense_plain(f, g).coeffs

    @pytest.mark.parametrize("D, prec", [(5, 1), (5, 6), (13, 3), (41, 2)])
    @pytest.mark.parametrize("bits", range(296, 304))
    def test_slots_reach_the_bound_past_the_last_row(self, D, prec, bits):
        """A big last row of u times a big row 1 of v: every other row is
        ones, so B_{prec+1} is the largest bound by far, and lo_{prec+1},
        which row prec + 1 of the masked sums holds but the product drops,
        reaches it in slot D - 1 where row 1 is constant.  A width without
        row prec + 1 overflows the slots of that row; where row 1 is random,
        the carries make some slot odd for the parity check (constant rows
        carry even amounts)."""
        f = CycSeries(D, [[1] * D] * prec + [[-(2**bits - 1)] * D])
        rng = random.Random(D + prec + bits)
        randoms = [[rng.randrange(1 - 2**300, 2**300) for _ in range(D)] for _ in range(3)]
        for row in [[2**300 - 1] * D, [1 - 2**300] * D, *randoms]:
            g = CycSeries(D, [[1] * D, row] + [[1] * D] * (prec - 1))
            assert f.mul_dense(g).coeffs == mul_dense_plain(f, g).coeffs

    @pytest.mark.parametrize("D, prec", [(5, 2), (13, 5), (41, 3)])
    def test_operands_wider_than_every_sum(self, D, prec):
        """A big row meets only rows of the other side that are zero or past
        row prec + 1, so max|u| or max|v| alone sets the width: with the
        bound of the sums alone, the big row does not fit its slots."""
        big = CycSeries(D, [[1] * D] * prec + [[-(2**300 - 1)] * D])
        late = CycSeries(D, [[0] * D] * 2 + [[1] * D] * (prec - 1))
        for f, g in ((big, late), (late, big)):
            assert f.mul_dense(g).coeffs == mul_dense_plain(f, g).coeffs

    def test_zero_operands(self):
        rng = random.Random(7)
        f = _random_series(rng, 13, 9, 300)
        zero = _constant_series(13, 9, 0)
        assert f.mul_dense(zero).coeffs == zero.coeffs
        assert zero.mul_dense(f).coeffs == zero.coeffs

    @pytest.mark.parametrize("point", [0, 1])
    @pytest.mark.parametrize("D, prec", [(5, 0), (13, 3), (21, 4)])
    def test_point_product_off_by_one_raises(self, monkeypatch, D, prec, point):
        """W+ (point 0) or W- (point 1) one too large in one slot: that slot
        is odd in both W+ + W- and W+ - W-, so the halving refuses it, in
        the first row, a middle one and the last row read (prec + 1),
        instead of returning rows."""
        rng = random.Random(D + prec)
        f = _random_series(rng, D, prec, 64, zero_rows=0)
        g = _random_series(rng, D, prec, 64, zero_rows=0)
        pack_pm = oracle._pack_pm

        class OffByOne(int):
            def __mul__(self, other):
                return int(self) * other + self.off

        for slot in (0, (prec + 1) * D // 2, (prec + 2) * D - 1):

            def corrupted(rows, wb, even):
                packed = list(pack_pm(rows, wb, even))
                if rows is f.coeffs:  # the left factor of both point products
                    packed[point] = OffByOne(packed[point])
                    packed[point].off = 1 << (8 * wb * slot)
                return tuple(packed)

            monkeypatch.setattr(oracle, "_pack_pm", corrupted)
            with pytest.raises(RingError, match="odd slot"):
                f.mul_dense(g)

    @pytest.mark.parametrize("D, N, raises", [(5, 8, True), (13, 12, True), (13, 6, False), (21, 5, False)])
    def test_minus_point_packed_as_plus_point_fails(self, monkeypatch, D, N, raises):
        """With U(-y) packed as U(y), W- = W+: every slot of the two sums is
        even, so the halving passes, but the odd rows of hi are then rows of
        W+ and fill slot D - 1, which no row product reaches, so a product
        of dense rows raises, and so does the oracle where its first product
        reaches that slot.  Where it does not (its rows count parts, fewer
        than D - 1 at small N), the rows it returns are zero at every odd
        q-power, so they take the same value at y and -y and the later
        products are right for their wrong operands; the projection accepts
        the result, and the coefficients differ from the kernel's."""
        pack_pm = oracle._pack_pm

        def plus_twice(rows, wb, even):
            u_pos, _ = pack_pm(rows, wb, even)
            return u_pos, u_pos

        monkeypatch.setattr(oracle, "_pack_pm", plus_twice)
        rng = random.Random(D + N)
        f = _random_series(rng, D, N, 64, zero_rows=0)
        with pytest.raises(RingError, match="past 2D - 2"):
            f.mul_dense(_random_series(rng, D, N, 64, zero_rows=0))
        if raises:
            with pytest.raises(RingError, match="past 2D - 2"):
                a_via_convolution(D, N)
        else:
            assert a_via_convolution(D, N) != list(qseries.eta_series(D, N).coeffs)


def _sigma(f, a):
    """x -> x^a on every row: the entry at slot r moves to slot a r mod D."""
    rows = []
    for row in f.coeffs:
        out = [0] * f.D
        for r, c in enumerate(row):
            out[a * r % f.D] = c
        rows.append(out)
    return CycSeries(f.D, rows)


class TestNorm:
    """oracle._norm, the product of sigma_h(G) over the residues h by doubling
    along a subgroup chain, against the factors multiplied in one by one by
    the double loop in tests/oracles.py; and the stride-D product by the
    integer factors against a plain double loop."""

    @pytest.mark.parametrize("D, prec", [(5, 6), (13, 4), (21, 3), (105, 1), (221, 0)])
    def test_matches_sequential_product(self, D, prec):
        # chain steps k: 13 and 21 take 3 (odd) then 2; 105 (H not cyclic)
        # 12 then 2; 221 12 then 8
        rng = random.Random(D)
        qr = residues(build_char_table(D), 1)
        for bits in (1, 12):
            G = _random_series(rng, D, prec, bits, zero_rows=0)
            expected = G
            for a in qr[1:]:
                expected = mul_dense_plain(expected, _sigma(G, a))
            assert oracle._norm(G, qr).coeffs == expected.coeffs

    @staticmethod
    def _times_int_series_plain(rows, base):
        N, D = len(rows) - 1, len(rows[0])
        return [
            [sum(rows[i][r] * base[k - i] for i in range(k + 1)) for r in range(D)]
            for k in range(N + 1)
        ]

    @pytest.mark.parametrize("D, N", [(5, 0), (5, 9), (13, 3), (21, 1)])
    def test_times_int_series_random(self, D, N):
        rng = random.Random(D + N)
        rows = _random_series(rng, D, N, 300).coeffs
        base = [rng.randrange(-(2**64), 2**64) for _ in range(N + 1)]
        assert oracle._times_int_series(rows, base, D) == self._times_int_series_plain(rows, base)

    @pytest.mark.parametrize("D, N", [(5, 0), (5, 12), (13, 4), (21, 1)])
    @pytest.mark.parametrize("bits", range(296, 304))
    def test_times_int_series_extreme_slots(self, D, N, bits):
        """Every coefficient at -(2^bits - 1) on one side and at either sign
        on the other, so each slot of the last row reaches the largest
        bound, sum_{i+j=N} max|rows_i| |base_j| = (N + 1) M^2, in magnitude;
        eight consecutive widths cover every rounding of the bound to whole
        bytes."""
        M = 2**bits - 1
        rows = _constant_series(D, N, -M).coeffs
        for base in ([-M] * (N + 1), [M] * (N + 1)):
            assert oracle._times_int_series(rows, base, D) == self._times_int_series_plain(rows, base)

    @pytest.mark.parametrize("D, N", [(5, 1), (5, 12), (13, 4)])
    @pytest.mark.parametrize("bits", range(296, 304))
    def test_times_int_series_bound_in_the_last_row(self, D, N, bits):
        """Rows that are zero but for the last, times base that is zero but
        for base_0: only row N holds a sum, and it reaches its bound."""
        rows = [[0] * D] * N + [[-(2**bits - 1)] * D]
        for base in ([2**300 - 1] + [0] * N, [1 - 2**300] + [0] * N):
            assert oracle._times_int_series(rows, base, D) == self._times_int_series_plain(rows, base)

    @pytest.mark.parametrize("D, N", [(5, 2), (13, 4)])
    def test_times_int_series_operands_wider_than_every_sum(self, D, N):
        """A big last row times base with base_0 = 0, and a big base_1 times
        rows that are zero but for the last: no sum meets the big operand,
        which alone sets the width."""
        big = 2**300 - 1
        cases = [([[1] * D] * N + [[-big] * D], [0] + [1] * N),
                 ([[0] * D] * N + [[1] * D], [1, big] + [1] * (N - 1))]
        for rows, base in cases:
            assert oracle._times_int_series(rows, base, D) == self._times_int_series_plain(rows, base)


class TestIndependence:
    """The oracle shares only the generic packing helpers with the route it
    checks: with the kernel's entry points disabled it still reproduces the
    golden coefficients."""

    @pytest.mark.parametrize("D", [5, 13, 17])
    def test_golden_without_the_kernel(self, monkeypatch, D):
        def forbidden(*args, **kwargs):
            raise AssertionError("the convolution oracle reached the exact kernel")

        kernel = ("euler_transform", "eta_series", "_pair_product", "_solve", "_block", "_mul_pairs")
        for name in kernel:
            assert not hasattr(oracle, name)
            monkeypatch.setattr(qseries, name, forbidden)
        expected = {N: value for D2, N, value in golden_coefficients() if D2 == D}
        conv = a_via_convolution(D, max(expected))
        assert {N: conv[N] for N in expected} == expected
