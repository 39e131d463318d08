import gc
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (
    eta_pairs_by_product,
    euler_transform_plain,
    fundamental_discriminants,
    mul_pairs_plain,
)

from hecke_eta import qseries
from hecke_eta.characters import build_char_table, euler_phi
from hecke_eta.lseries import m_exponent
from hecke_eta.cyclotomic import _trace_weights
from hecke_eta.golden import COEFF_TABLE, TAU5_TABLE
from hecke_eta.oracle import a_via_convolution
from hecke_eta.quad_ring import RingElem, RingError
from hecke_eta.qseries import SeriesError, eta_series, series_pow, tau5_values


class TestSeriesOps:
    def test_pow_one_is_identity(self):
        f = eta_series(5, 15)
        assert series_pow(f, 1) == f

    def test_pow_matches_repeated_mul(self):
        f = eta_series(13, 12)
        A = [c.num_a for c in f.coeffs]
        B = [c.num_b for c in f.coeffs]
        A2, B2 = mul_pairs_plain(A, B, A, B, 13, 12)
        A3, B3 = mul_pairs_plain(A2, B2, A, B, 13, 12)
        cube = series_pow(f, 3)
        assert [(c.num_a, c.num_b) for c in cube.coeffs] == list(zip(A3, B3))
        assert cube.D == 13 and len(cube.coeffs) - 1 == 12

    def test_valuations_add(self):
        f = eta_series(5, 8)
        assert f.valuation == Fraction(1, 5)
        assert series_pow(f, 2).valuation == Fraction(2, 5)
        assert series_pow(f, 5).valuation == 1

    def test_valuation_pair_is_in_lowest_terms(self):
        """The valuation is held as an integer pair and read as a Fraction."""
        f = eta_series(5, 4)
        assert f.valuation_pair == (1, 5)
        assert [series_pow(f, k).valuation_pair for k in (2, 5, 10)] == [(2, 5), (1, 1), (2, 1)]
        assert series_pow(eta_series(17, 4), 3).valuation_pair == (6, 1)
        assert type(f.valuation) is Fraction

    def test_nonpositive_exponent_rejected(self):
        for k in (0, -1):
            with pytest.raises(SeriesError):
                series_pow(eta_series(5, 4), k)


class TestEtaSeries:
    def test_table_samples(self):
        s5 = eta_series(5, 3)
        assert (s5.coeffs[1].num_a, s5.coeffs[1].num_b) == (-2, -2)
        assert (s5.coeffs[2].num_a, s5.coeffs[2].num_b) == (7, 1)
        assert (s5.coeffs[3].num_a, s5.coeffs[3].num_b) == (0, -4)
        s13 = eta_series(13, 3)
        assert (s13.coeffs[3].num_a, s13.coeffs[3].num_b) == (-4, -8)
        s17 = eta_series(17, 25)
        assert (s17.coeffs[25].num_a, s17.coeffs[25].num_b) == (2762828, -671572)

    def test_full_golden_table(self):
        for D, table in COEFF_TABLE.items():
            s = eta_series(D, 25)
            for N, pair in table.items():
                assert (s.coeffs[N].num_a, s.coeffs[N].num_b) == pair

    def test_constant_term_is_one(self):
        for D in (5, 13, 17, 21):
            assert eta_series(D, 5).coeffs[0] == RingElem(2, 0, D)

    def test_valuation_metadata(self):
        assert eta_series(5, 2).valuation == Fraction(1, 5)
        assert eta_series(13, 2).valuation == 1
        assert eta_series(17, 2).valuation == 2

    def test_truncation_stability(self):
        for D in (5, 13):
            a = eta_series(D, 40)
            b = eta_series(D, 50)
            assert a.coeffs == b.coeffs[:41]

    def test_parity_invariant_on_all_coefficients(self):
        s = eta_series(17, 60)
        for c in s.coeffs:
            assert (c.num_a - c.num_b) % 2 == 0

    def test_invalid_inputs(self):
        with pytest.raises(Exception):
            eta_series(9, 10)
        with pytest.raises(SeriesError):
            eta_series(5, 0)
        with pytest.raises(SeriesError):
            eta_series(5, -1)
        with pytest.raises(SeriesError):
            tau5_values(0)

    def test_odd_numerator_after_a_product_raises(self):
        """Pairs outside O_D, (1 + 0 sqrt(5))/2 squared, leave an odd
        numerator over 4, which _mul_pairs refuses to halve."""
        with pytest.raises(RingError, match="odd numerator after convolution"):
            qseries._mul_pairs([1], [0], [1], [0], 5, 0)

    def test_no_order_cap(self, monkeypatch):
        """An order past 16000, the limit the CLI once set here, reaches the
        kernel: the CLI's cost model alone bounds the order."""

        def kernel(P, Q, D, N):
            raise LookupError(N)

        monkeypatch.setattr(qseries, "euler_transform", kernel)
        with pytest.raises(LookupError, match="16001"):
            eta_series(5, 16001)
        with pytest.raises(LookupError, match="16001"):
            tau5_values(16002)

    def test_guard_fires_on_a_wrong_divisor_sum(self, monkeypatch):
        # a(3) would pick up b'(3)/3 = 1/3: the division by k = 3 is inexact
        sums = qseries._divisor_sums

        def off_by_one(chi, D, N):
            s1, s2 = sums(chi, D, N)
            s1[2] += 1
            return s1, s2

        monkeypatch.setattr(qseries, "_divisor_sums", off_by_one)
        with pytest.raises(RingError, match="inexact division by 3"):
            eta_series(13, 10)


def _lambert_inputs(D, N, r):
    """P, Q of eta_D**r to order N, as _eta_power passes them."""
    s1, s2 = qseries._divisor_sums(build_char_table(D), D, N)
    return [-2 * r * x for x in s1], [-2 * r * x for x in s2]


def _period_inputs(D, sign):
    """P, Q and N of the period polynomial of D, as cyclotomic passes them,
    with the sign of its sqrt(D) part flipped for sign = -1."""
    chi = build_char_table(D)
    c = _trace_weights(D)
    h = euler_phi(D) // 2
    ms = range(1, h + 2)
    return [-c[m % D] for m in ms], [-sign * chi[m % D] for m in ms], h + 1


class TestOnlineKernel:
    """The divide-and-conquer kernel against the plain recurrence."""

    @settings(max_examples=30, deadline=None)
    @given(
        D=st.sampled_from(fundamental_discriminants(300)),
        r=st.sampled_from([1, 5]),
        N=st.integers(min_value=1, max_value=400),
    )
    @example(D=5, r=5, N=400)
    @example(D=285, r=1, N=400)
    @example(D=5, r=1, N=48)
    @example(D=5, r=1, N=49)
    def test_eta_inputs_match_plain(self, D, r, N):
        P, Q = _lambert_inputs(D, N, r)
        assert qseries.euler_transform(P, Q, D, N) == euler_transform_plain(P, Q, D, N)

    @settings(max_examples=20, deadline=None)
    @given(D=st.sampled_from(fundamental_discriminants(300)), sign=st.sampled_from([1, -1]))
    @example(D=293, sign=-1)
    def test_period_inputs_match_plain(self, D, sign):
        P, Q, N = _period_inputs(D, sign)
        assert qseries.euler_transform(P, Q, D, N) == euler_transform_plain(P, Q, D, N)

    @pytest.mark.parametrize("pays", [False, True])
    @pytest.mark.parametrize(
        "D, N, r", [(5, 400, 1), (285, 400, 1), (5, 442, 5), (5, 200, 10**60), (100049, 400, 1)]
    )
    def test_either_route_alone_at_every_size(self, monkeypatch, pays, D, N, r):
        """With every block declined, each right half is finished by the
        plain recurrence from its range's start; with none declined, by
        block products alone."""
        monkeypatch.setattr(qseries, "_kronecker_pays", lambda n, wb: pays)
        P, Q = _lambert_inputs(D, N, r)
        assert qseries.euler_transform(P, Q, D, N) == euler_transform_plain(P, Q, D, N)

    @pytest.mark.parametrize("pays", [False, True])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_either_route_alone_on_period_inputs(self, monkeypatch, pays, sign):
        monkeypatch.setattr(qseries, "_kronecker_pays", lambda n, wb: pays)
        P, Q, N = _period_inputs(293, sign)
        assert qseries.euler_transform(P, Q, 293, N) == euler_transform_plain(P, Q, 293, N)

    @pytest.mark.parametrize("D, N, r", [(100049, 400, 1), (5, 200, 10**60)])
    def test_wide_coefficients_on_both_sides_of_the_cutoff(self, monkeypatch, D, N, r):
        pays = qseries._kronecker_pays
        taken = set()

        def spy(n, wb):
            taken.add(pays(n, wb))
            return pays(n, wb)

        monkeypatch.setattr(qseries, "_kronecker_pays", spy)
        P, Q = _lambert_inputs(D, N, r)
        assert qseries.euler_transform(P, Q, D, N) == euler_transform_plain(P, Q, D, N)
        # D = 100049 widens a(k) past the cut-off within one transform;
        # r = 10^60 starts past it.
        assert taken == ({True, False} if r == 1 else {False})

    def test_leaves_no_reference_cycle(self):
        P, Q = _lambert_inputs(5, 300, 1)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            qseries.euler_transform(P, Q, 5, 300)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_guard_fires_past_the_leaves(self, monkeypatch):
        sums = qseries._divisor_sums

        def shifted(chi, D, N):
            s1, s2 = sums(chi, D, N)
            s1[96] += 1
            return s1, s2

        monkeypatch.setattr(qseries, "_divisor_sums", shifted)
        with pytest.raises(RingError, match="inexact division by 97 "):
            eta_series(5, 200)


def _schoolbook(P, Q, A, B, D):
    """X = P A + D Q B and Y = P B + Q A coefficient by coefficient."""
    n = len(P) + len(A) - 1
    X = [0] * n
    Y = [0] * n
    for i, (p, q) in enumerate(zip(P, Q)):
        for j, (a, b) in enumerate(zip(A, B)):
            X[i + j] += p * a + D * q * b
            Y[i + j] += p * b + q * a
    return X, Y


class TestPairProduct:
    """The Kronecker block product at the edge of its slot bound."""

    @pytest.mark.parametrize("D", [5, 4_000_001])
    @pytest.mark.parametrize("bits", [1, 64, 200])
    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 9), (17, 40)])
    @pytest.mark.parametrize("signs", [(1, 1, 1, 1), (1, -1, 1, -1), (-1, -1, 1, 1)])
    def test_extreme_operands(self, D, bits, n1, n2, signs):
        M = (1 << bits) - 1
        sp, sq, sa, sb = signs
        P, Q = [sp * M] * n1, [sq * M] * n1
        A, B = [sa * M] * n2, [sb * M] * n2
        X, Y = _schoolbook(P, Q, A, B, D)
        wb = qseries._slot_bytes(P, Q, A, B, D)
        assert qseries._pair_product(P, Q, A, B, D, 0, n1 + n2 - 1, wb) == (X, Y)
        # a middle window, and slots past the product read as zero
        lo, hi = n1 // 2, n1 + n2 + 3
        assert qseries._pair_product(P, Q, A, B, D, lo, hi, wb) == (
            X[lo:] + [0] * 4,
            Y[lo:] + [0] * 4,
        )

    @pytest.mark.parametrize("D", [5, 4_000_001])
    @pytest.mark.parametrize("N", [0, 1, 6])
    @pytest.mark.parametrize("pattern", [(1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0)])
    @pytest.mark.parametrize("bits", range(196, 204))
    def test_mul_pairs_reaches_its_slot_bound(self, D, N, pattern, bits):
        """The last row of one factor times row 0 of the other, with one
        numerator nonzero on each side: slot N of X or Y is then exactly
        its bound sum_{i+j=N} (|A1_i| + D |B1_i|)(|A2_j| + |B2_j|), and every
        earlier slot is zero.  Eight widths put the bound at every bit of a
        byte; M is even, so the products halve."""
        M = 2**bits - 2
        a1, b1, a2, b2 = (M * p for p in pattern)
        for sign in (1, -1):
            A1, B1 = [0] * N + [sign * a1], [0] * N + [sign * b1]
            A2, B2 = [a2] + [0] * N, [b2] + [0] * N
            assert qseries._mul_pairs(A1, B1, A2, B2, D, N) == mul_pairs_plain(A1, B1, A2, B2, D, N)

    @settings(max_examples=50, deadline=None)
    @given(
        D=st.sampled_from([5, 13, 4_000_001]),
        f=st.lists(st.tuples(st.integers(-(10**40), 10**40), st.integers(-(10**40), 10**40)), max_size=30),
        g=st.lists(st.tuples(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6)), max_size=30),
        N=st.integers(min_value=0, max_value=70),
    )
    def test_mul_pairs_matches_schoolbook(self, D, f, g, N):
        # numerator pairs of O_D elements have a - b even
        A1 = [2 * a for a, _ in f]
        B1 = [2 * b for _, b in f]
        A2 = [a + b % 2 - a % 2 for a, b in g]
        B2 = [b for _, b in g]
        assert qseries._mul_pairs(A1, B1, A2, B2, D, N) == mul_pairs_plain(A1, B1, A2, B2, D, N)


def _pairs(series):
    return [(c.num_a, c.num_b) for c in series.coeffs]


class TestThreeRoutes:
    """Recurrence vs the period-polynomial product vs the partition oracle,
    for prime and composite D alike."""

    @settings(max_examples=50, deadline=None)
    @given(
        D=st.sampled_from(fundamental_discriminants(101)),
        N=st.integers(min_value=1, max_value=60),
    )
    @example(D=85, N=60)
    @example(D=101, N=60)
    def test_recurrence_matches_product(self, D, N):
        assert _pairs(eta_series(D, N)) == eta_pairs_by_product(D, N)

    @settings(max_examples=40, deadline=None)
    @given(
        D=st.sampled_from(fundamental_discriminants(300)),
        N=st.integers(min_value=1, max_value=20),
    )
    @example(D=33, N=20)
    @example(D=101, N=20)
    @example(D=105, N=20)
    @example(D=293, N=20)
    def test_recurrence_matches_convolution(self, D, N):
        assert list(eta_series(D, N).coeffs) == a_via_convolution(D, N)


class TestDelta5:
    def test_tau_examples(self):
        taus = tau5_values(3)
        assert (taus[1].num_a, taus[1].num_b) == (2, 0)
        assert (taus[2].num_a, taus[2].num_b) == (-10, -10)
        assert (taus[3].num_a, taus[3].num_b) == (155, 45)

    def test_tau_full_table(self):
        taus = tau5_values(max(TAU5_TABLE))
        for n, pair in TAU5_TABLE.items():
            assert (taus[n].num_a, taus[n].num_b) == pair

    def test_delta_is_fifth_power(self):
        direct = series_pow(eta_series(5, 60), 5)
        assert list(tau5_values(61).values()) == list(direct.coeffs)
        assert direct.valuation == 1


def _z_i_residual(D, s1, s2):
    """|sum_k (s1(k) + sqrt(D) s2(k)) e^{-2 pi k/sqrt(D)} - m| at 60 digits,
    over k <= len(s1)."""
    with mpmath.workdps(60):
        sqrt_d = mpmath.sqrt(D)
        r = mpmath.exp(-2 * mpmath.pi / sqrt_d)
        total, rk = mpmath.mpf(0), mpmath.mpf(1)
        for a, b in zip(s1, s2):
            rk *= r
            total += (a + sqrt_d * b) * rk
        num, den = m_exponent(build_char_table(D))
        return abs(total - mpmath.mpf(num) / den)


class TestInversionAtI:
    """The inversion law eta_D(-1/z) = eta_D(z) at z = i: its derivative
    there makes the log-derivative m + sum_k b(k) q^k vanish at
    q = e^{-2 pi/sqrt(D)}, so m = sum_k (s1(k) + sqrt(D) s2(k)) e^{-2 pi k/sqrt(D)}
    with the Lambert inputs of the kernel (qseries._divisor_sums), an
    identity that weighs the small k most.  The terms past K leave a tail of
    at most a few 10^-57 (at D = 1001)."""

    D_VALUES = (5, 13, 17, 21, 105, 1001)

    @staticmethod
    def _sums(D):
        K = math.ceil(60 * math.log(10) * math.sqrt(D) / (2 * math.pi)) + 20
        return qseries._divisor_sums(build_char_table(D), D, K)

    @pytest.mark.parametrize("D", D_VALUES)
    def test_divisor_sums_give_m(self, D):
        assert _z_i_residual(D, *self._sums(D)) < 1e-55

    @pytest.mark.parametrize("D", D_VALUES)
    def test_mutants_miss(self, D):
        """A flipped sqrt(D) half (0.29 at D = 5 up to 1980 at D = 1001) and
        s2 replaced by s1 each miss m."""
        s1, s2 = self._sums(D)
        assert _z_i_residual(D, s1, [-b for b in s2]) > 1e-3
        assert _z_i_residual(D, s1, s1) > 1e-3
