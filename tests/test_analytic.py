import cmath
import math
import random

import pytest
from oracles import (
    fundamental_discriminants,
    half_plane_points,
    log_eta_tail_direct,
    phi_relation_decimal,
    phi_sharp_direct,
    random_words,
    word_matrix_by_generators,
)

from hecke_eta import analytic
from hecke_eta.analytic import (
    ConditioningError,
    bound_envelope,
    check_inversion,
    check_translation,
    check_u_gamma,
    envelope_constants,
    eval_eta_numeric,
    predicted_u,
    sample_half_plane_points,
    check_phi_relation,
    word_matrix,
)
from hecke_eta.characters import build_char_table
from hecke_eta.qseries import eta_series
from hecke_eta.quad_ring import embed_real


class TestEvalEta:
    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            eval_eta_numeric(5, complex(0.3, -1.0))
        with pytest.raises(ValueError):
            eval_eta_numeric(5, complex(0.3, 0.0))

    def test_fixed_point_of_inversion(self):
        z = complex(0, 1)
        assert eval_eta_numeric(5, z, 300) == eval_eta_numeric(5, -1 / z, 300)

    @pytest.mark.parametrize(
        "D, z",
        [
            (5, 0.2 + 1.1j), (5, -1.3 + 0.7j), (13, 0.3 + 1.2j), (13, 1.5 + 0.9j),
            (21, 0.5 + 1.4j), (21, -2 + 1.6j), (105, 0.4 + 3j), (105, -3 + 2.5j),
        ],
    )
    def test_matches_exact_coefficients(self, D, z):
        # truncated product vs exact Fourier series, both at the same point,
        # for prime and composite D; the conjugated coefficients (sqrt(D)
        # flipped) miss by a relative 0.2 to 50 at these points
        series = eta_series(D, 150)
        q = cmath.exp(2j * math.pi * z / math.sqrt(D))
        v = float(series.valuation)
        total = 0
        for k, c in enumerate(series.coeffs):
            total += complex(embed_real(c)) * q**k
        total *= cmath.exp(2j * math.pi * v * z / math.sqrt(D))
        numeric = eval_eta_numeric(D, z, 300)
        assert abs(total - numeric) < 1e-12 * abs(numeric)

    def test_truncation_stability_doubling(self):
        for D in (5, 13):
            for z in sample_half_plane_points(D, 5, seed=5):
                a = eval_eta_numeric(D, z, 300)
                b = eval_eta_numeric(D, z, 600)
                assert abs(a - b) < 1e-12

    def test_largest_cli_truncation_is_converged(self):
        """2^53, the largest --nmax the CLI accepts, evaluates without
        overflow and to the same float as 10^7: both stop at the tail."""
        z = 0.3 + 0.9j
        assert eval_eta_numeric(5, z, 2**53) == eval_eta_numeric(5, z, 10**7)


NMAXES = (1, 50, 300, 3000)


def _plans(D, z, n_max):
    """The truncation plan (n0, M, nu, M_u) of log_eta_tail at z."""
    data = analytic._eta_data(D)
    return analytic._plan(2 * math.pi * z.imag / data.sqrt_d, n_max, D, data.phi)


def _kind(n, terms):
    return "direct" if terms == 0 else ("series" if n == 0 else "mixed")


def _split_kind(D, z, n_max):
    n0, M, _, _ = _plans(D, z, n_max)
    return _kind(n0, M)


def _untwisted_kind(D, z, n_max):
    _, _, nu, M_u = _plans(D, z, n_max)
    return _kind(nu, M_u)


class TestAgainstDirectProduct:
    """The split evaluation equals the direct product at the same truncation
    (tests/oracles.py) to 1e-10 relative, compared as exp of the log
    difference so that large logs near the real axis cannot overflow."""

    @staticmethod
    def _assert_agrees(D, z, n_max):
        got = analytic.log_eta_tail(D, z, n_max)
        ref = log_eta_tail_direct(D, z, n_max)
        assert abs(cmath.exp(got - ref) - 1) <= 1e-10, (D, z, n_max)

    @pytest.mark.parametrize("D", fundamental_discriminants(101))
    def test_every_discriminant_to_101(self, D):
        """z, -1/z, z + sqrt(D) and a point near the axis (im 0.01..0.1), each
        D at one n_max of NMAXES in turn, composites included."""
        n_max = NMAXES[fundamental_discriminants(101).index(D) % len(NMAXES)]
        (z,) = sample_half_plane_points(D, 1, seed=D)
        (near,) = half_plane_points(D, 1, D, (0.01, 0.1))
        for w in (z, -1 / z, z + math.sqrt(D), near):
            self._assert_agrees(D, w, n_max)

    @pytest.mark.parametrize("n_max", NMAXES)
    @pytest.mark.parametrize("D", [5, 33, 101])
    def test_every_truncation(self, D, n_max):
        for z in half_plane_points(D, 2, n_max, (0.01, 1.5)):
            for w in (z, -1 / z, z + math.sqrt(D)):
                self._assert_agrees(D, w, n_max)

    @pytest.mark.parametrize("ratio", [0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 2.0])
    @pytest.mark.parametrize("D", [5, 13, 1001])
    def test_at_the_log_floor(self, D, ratio):
        """Heights where L = 2 pi Im z / sqrt(D) is ratio times L1, the L at
        which a half's direct product stops at n = 1 (M(0) = 1 in
        _series_ratio, every later factor below the 2^-60 floor), so that the
        stop is 2, 1 or 0: for the untwisted half (scale 1), whose plan then
        takes the direct product, and for the twisted one (scale 2 sqrt(D)).
        At ratio 1 itself the stop is 0 or 1 by rounding."""
        stops = {0.5: 2, 1 - 1e-12: 1, 1 + 1e-12: 0, 2.0: 0}
        data = analytic._eta_data(D)
        for scale in (1.0, 2 * data.sqrt_d):
            L = 45.0
            for _ in range(5):  # L1 = L1 * M(0) at L1, a fixed point reached at once
                L *= analytic._series_ratio(L, 0, scale, analytic._LOG_EPS)
            L *= ratio
            if scale == 1.0 and ratio in stops:
                assert analytic._plan(L, 3, D, data.phi)[2:] == (stops[ratio], 0)
            for re in (0.0, -0.0, 0.3):
                self._assert_agrees(D, complex(re, L * data.sqrt_d / (2 * math.pi)), 3)

    def test_series_alone_where_phi_is_large(self):
        """At D = 1001 (phi = 480) and height 3 the split takes the series
        for every n."""
        z = complex(0.3, 3.0)
        for n_max in (2, 50, 300):
            assert _split_kind(1001, z, n_max) == "series"
            self._assert_agrees(1001, z, n_max)

    def test_all_three_splits_are_covered(self):
        z = complex(0.3, 1.0)
        kinds = {_split_kind(5, z, 1), _split_kind(5, z, 300), _split_kind(1001, 3 * z, 300)}
        assert kinds == {"direct", "mixed", "series"}

    @pytest.mark.parametrize(
        "D, height, n_max",
        [
            (5, 1e-3, 10**5), (5, 1e-3, 3000), (5, 0.01, 1000), (5, 0.1, 3000),
            (13, 1e-3, 10**5), (13, 1e-3, 3000), (13, 0.03, 300), (65, 0.01, 1000),
            (65, 0.1, 3000), (101, 0.03, 1000), (101, 0.1, 3000), (1001, 0.05, 3000),
        ],
    )
    def test_untwisted_series_near_the_axis(self, D, height, n_max):
        """Points where the untwisted half takes its series: at a random Re z
        and at arg q = 2 pi k / D, where q^m passes close to the D-th roots of
        unity.  Where n_max L is below about 20, |q|^{n_max} is not negligible,
        so the last, partial period of the series shows."""
        rng = random.Random(D * n_max)
        for re in (rng.uniform(-1, 1) * math.sqrt(D) / 2, rng.randrange(1, D) / math.sqrt(D)):
            z = complex(re, height)
            assert _untwisted_kind(D, z, n_max) == "mixed"
            self._assert_agrees(D, z, n_max)

    def test_both_untwisted_plans_are_covered(self):
        """M_u = 0 takes no untwisted series, 0 < nu with M_u > 0 takes it past
        nu.  The series alone (nu = 0) is never chosen: it costs at least
        12.5 (M(0) - 1) against ceil(M(0)) - 1 direct factors, so it is
        cheaper only where M(0) < 1.09, and there the direct product stops at
        one factor at most, which the plan takes at once: at D = 5, height
        14.4, one direct factor meets the target."""
        plans = {
            (5, 1.0j, 1): "direct",
            (5, 0.3 + 1.0j, 300): "mixed",
            (5, 0.3 + 14.4j, 300): "direct",
        }
        for (D, z, n_max), kind in plans.items():
            assert _untwisted_kind(D, z, n_max) == kind
            self._assert_agrees(D, z, n_max)
        for D in (5, 13, 101, 1001):
            for k in range(-24, 9):
                for n_max in (1, 300, 10**5):
                    assert _untwisted_kind(D, complex(0, 2.0**k), n_max) != "series"

    def test_every_plan_drops_less_than_the_target(self):
        """What a plan leaves out, the series terms past M or, without a
        series, the factors past its stop n < N, is bounded (_series_ratio)
        below 2^-60, in both halves, over D, L and N."""
        for D in (5, 13, 21, 101, 1001, 100049):
            data = analytic._eta_data(D)
            for k in range(-70, 8):
                L = 2.0 ** (k / 3)
                for N in (1, 3, 50, 300, 3000, 10**5, 10**7):
                    n0, M, nu, M_u = analytic._plan(L, N, D, data.phi)
                    for n, terms, scale in ((n0, M, 2 * data.sqrt_d), (nu, M_u, 1.0)):
                        assert 0 <= n <= N
                        ratio = analytic._series_ratio(L, n, scale, analytic._LOG_EPS)
                        assert n == N or terms + 1 >= ratio, (D, L, N, n, terms)

    @pytest.mark.parametrize("D", [5, 101, 1001])
    def test_plan_at_an_infinite_height(self, D):
        """Where L = 2 pi height / sqrt(D) is inf, from a height of about
        2.9e307 on (where 2 pi height overflows), every factor is 1: the plan
        takes no factor and no term (its stop read -1), and no product costs
        less than PRODUCT_BASE_S (it read 2.5e-5 at D = 5 and below 0 from
        D = 101)."""
        data = analytic._eta_data(D)
        assert analytic._plan(math.inf, 300, D, data.phi) == (0, 0, 0, 0)
        for height in (1e300, 1e308, math.inf):
            assert analytic.product_s(D, 300, height) >= analytic.PRODUCT_BASE_S

    @pytest.mark.parametrize("n_max", [1, 50, 400])
    @pytest.mark.parametrize("D", [5, 21, 29])
    def test_phi_sharp(self, D, n_max):
        import mpmath

        chi = build_char_table(D)
        bits = math.ceil(40 * math.log2(10))
        for y in (0.5, 2.0):
            got = analytic._phi_sides(chi, y, n_max, bits)[0]
            ref = phi_sharp_direct(D, y, n_max, 30)
            with mpmath.workdps(40):
                got = mpmath.mpf(got) / mpmath.mpf(2) ** bits
                assert abs(mpmath.exp(got) / ref - 1) < mpmath.mpf(10) ** -30


class TestModularLaws:
    @pytest.mark.parametrize("D", [5, 13, 17])
    def test_inversion_residuals(self, D):
        for z in sample_half_plane_points(D, 5):
            assert check_inversion(D, z, 300) < 1e-6

    def test_translation_d5_needs_fifth_root(self):
        z = complex(0.2, 0.9)
        assert check_translation(5, z, 300) < 1e-8
        # with u = 1 the residual is large: the multiplier is genuine
        raw = abs(
            eval_eta_numeric(5, z + math.sqrt(5), 300) - eval_eta_numeric(5, z, 300)
        )
        assert raw > 1e-3

    @pytest.mark.parametrize("D", [13, 17])
    def test_translation_trivial_multiplier(self, D):
        z = complex(-0.4, 1.5)
        assert check_translation(D, z, 300) < 1e-10

    def test_overflow_reads_inf(self):
        """At the fifth default sample of D = 1001, eta(-1/z) overflows the
        float range: the inversion law reads inf, with no OverflowError, and
        the translation law still reads the residual that verify-modularity
        prints."""
        z = complex(-13.360656428755041, 0.54500160987474144)
        assert sample_half_plane_points(1001, 5)[4] == z
        assert check_inversion(1001, z, 300) == math.inf
        assert f"{check_translation(1001, z, 300):.3e}" == "9.614e-53"

    def test_underflow_to_zero_reads_inf(self):
        """At D = 10009, eta_D underflows to exactly 0 at every default
        sample: both laws read inf, not the residual 0 between two zeros."""
        for z in sample_half_plane_points(10009, 4):
            assert eval_eta_numeric(10009, z, 300) == 0
            assert check_inversion(10009, z, 300) == math.inf
            assert check_translation(10009, z, 300) == math.inf

    @pytest.mark.parametrize("D", [5, 13, 1001])
    def test_one_evaluation_a_law_point(self, D, monkeypatch):
        """law_residuals evaluates eta_D once at each of law_points(D, z),
        eta(z) included, which both laws share."""
        calls = []

        def spy(D_, w, n_max=300):
            calls.append(w)
            return eval_eta_numeric(D_, w, n_max)

        monkeypatch.setattr(analytic, "eval_eta_numeric", spy)
        for z in sample_half_plane_points(D, 5):
            calls.clear()
            analytic.law_residuals(D, z, 300)
            assert calls == list(analytic.law_points(D, z))


class TestPhiRelation:
    @pytest.mark.parametrize("D", [5, 13])
    @pytest.mark.parametrize("y", [0.7, 1.0, 1.5])
    def test_residuals(self, D, y):
        assert check_phi_relation(D, y, 400, 30) < 1e-8

    @pytest.mark.parametrize("digits", [30, 60])
    @pytest.mark.parametrize("y", [0.5, 2.0])
    @pytest.mark.parametrize("D", [5, 13, 29])
    def test_residual_below_requested_digits(self, D, y, digits):
        assert check_phi_relation(D, y, 400, digits) < 10.0**-digits

    def test_mirrored_pair(self):
        # y and 1/y probe the same identity from both sides
        assert check_phi_relation(5, 2.0, 400, 30) < 1e-8
        assert check_phi_relation(5, 0.5, 400, 30) < 1e-8

    def test_self_consistency_of_l_prime_value(self):
        # the class number value of L'(0, chi_5) closes the identity at y = 1
        assert check_phi_relation(5, 1.0, 400, 30) < 1e-10

    def test_rejects_bad_y(self):
        with pytest.raises(ValueError):
            check_phi_relation(5, -1.0)

    @pytest.mark.parametrize("y", [math.inf, math.nan])
    def test_rejects_a_y_that_is_not_finite(self, y):
        with pytest.raises(ValueError, match="finite y > 0"):
            check_phi_relation(5, y)

    @pytest.mark.parametrize("digits", [30, 60])
    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("D", [5, 13, 17, 21, 29])
    def test_sides_match_the_decimal_route(self, D, y, digits):
        _assert_sides_match_decimal(D, y, digits)

    @pytest.mark.parametrize("y", [1e-3, 0.05])
    @pytest.mark.parametrize("D", [5, 29])
    def test_small_products_keep_their_precision(self, D, y):
        """At small y the factors 1 - q^n are near nL and their products
        fall to 10^-40 and below; held as v / 2^s they keep the digits that
        the Decimal route keeps."""
        _assert_sides_match_decimal(D, y, 30)

    def test_takes_y_exactly(self):
        """y = 0.7 enters as the double's exact ratio of ints, as Decimal(y)
        took it, not as 7/10 (off by 10^-17); an int y is the same ratio as
        its float."""
        _assert_sides_match_decimal(13, 0.7, 30)
        assert check_phi_relation(13, 1) == check_phi_relation(13, 1.0)


def _assert_sides_match_decimal(D, y, digits):
    """log Phi#, log Phi and the factor's log, in integer fixed point at the
    F bits check_phi_relation uses, equal the Decimal route's to 10^-digits."""
    import mpmath

    bits = math.ceil((digits + 10) * math.log2(10))
    got = analytic._phi_sides(build_char_table(D), y, 400, bits)
    ref = phi_relation_decimal(D, y, 400, digits)
    with mpmath.workdps(digits + 20):
        for g, r in zip(got, ref, strict=True):
            error = mpmath.mpf(g) / mpmath.mpf(2) ** bits - mpmath.mpf(str(r))
            assert abs(error) < mpmath.mpf(10) ** -digits, (D, y, digits)


# The deepest word of the numeric benchmark's seed 1, at heights near 3.3e-6.
SEED_WORD = [-1, -3, -2, -1, 3, -1, 3, 3, 3, 3]


def _u_gamma_truncation(z, gz):
    """check_u_gamma's truncation: the least n past which the twisted half's
    dropped factors at the lower point are below 2^-60."""
    L = 2 * math.pi * min(z.imag, gz.imag) / math.sqrt(5)
    return math.ceil(analytic._series_ratio(L, 0, 2 * math.sqrt(5), analytic._LOG_EPS)) - 1


class TestWords:
    def test_base_case_matrix(self):
        w = word_matrix([1, 1], 5)
        assert w.mat == ((5, 4), (5, 5))
        assert predicted_u(w) == 2

    @pytest.mark.parametrize("D", [5, 13, 17])
    def test_matrix_matches_generator_product(self, D):
        rng = random.Random(D)
        for _ in range(300):
            ks = [rng.randint(-4, 4) for _ in range(rng.randint(1, 10))]
            assert word_matrix(ks, D).mat == word_matrix_by_generators(ks, D), ks

    def test_identity_like_word(self):
        w = word_matrix([0], 5)
        assert predicted_u(w) == 0
        assert check_u_gamma(w, complex(0.3, 1.0)) < 1e-10

    def test_example_word(self):
        w = word_matrix([2, -1, 1], 5)
        assert predicted_u(w) == 2
        assert check_u_gamma(w) < 1e-4

    def test_exponent_sum_identity_on_1000_words(self):
        for w in random_words(1000, max_len=6, k_range=3, seed=99):
            assert predicted_u(w) == sum(w.ks) % 5

    def test_determinant_and_gamma0_shape(self):
        """Odd-length words lie in Gamma_0(5): determinant 1 and 5 | c; even
        ones in W_5 Gamma_0(5): determinant 5 and 5 divides a, c and d."""
        for w in random_words(200, max_len=5, k_range=4, seed=7):
            (a, b), (c, d) = w.mat
            if len(w.ks) % 2:
                assert (a * d - b * c, c % 5) == (1, 0), w.ks
            else:
                assert (a * d - b * c, a % 5, c % 5, d % 5) == (5, 0, 0, 0), w.ks

    @pytest.mark.parametrize("D", [5, 13, 17, 21, 29, 33, 37, 101, 105, 1001])
    def test_odd_words_have_d_plus_minus_one(self, D):
        """In the generator product of a word of length l, with s =
        (-1)^floor((l-1)/2): for odd l, a = d = s mod D, so the word lies in
        the part of Gamma_0(D) where chi(d) = 1 (ROADMAP item 19); for even
        l, c/D = -b = s mod D, as (S T^j)(S T^k)/D = (-1, *; 0, -1) and
        T^k = (1, *; 0, 1) mod D.  word_matrix guards both."""
        rng = random.Random(D)
        for _ in range(120):
            ks = [rng.randint(-3, 3) for _ in range(rng.randint(1, 10))]
            (a, b), (c, d) = word_matrix_by_generators(ks, D)
            sign = (-1) ** ((len(ks) - 1) // 2)
            if len(ks) % 2:
                assert (a - sign) % D == (d - sign) % D == 0, ks
            else:
                assert (c // D - sign) % D == (b + sign) % D == 0, ks
            assert word_matrix(ks, D).mat == ((a, b), (c, d)), ks

    def test_deepest_seed_word_plan_is_small(self):
        """The deepest seed word is truncated at its own tail, n_eff > 7 * 10^6
        factors, and takes fewer than 10^5 log-equivalents (direct logs, and
        series terms at their cost) over both heights, where the direct
        product alone would take n_eff logs a height."""
        w = word_matrix(SEED_WORD, 5)
        z = analytic.adapted_point(w)
        gz = w.apply(z)
        n_eff = _u_gamma_truncation(z, gz)
        assert n_eff > 7 * 10**6
        cost = 0.0
        for h in (z.imag, gz.imag):
            n0, M, nu, M_u = _plans(5, complex(0, h), n_eff)
            cost += n0 * 4 + analytic._TERM_COST * M + nu + analytic._untwisted_term_cost(5) * M_u
        assert cost < 10**5

    def test_u_gamma_truncation_is_converged(self):
        """check_u_gamma equals the same ratio evaluated at twice its
        truncation to within 1e-12, on the deepest seed word and 25 random
        words."""
        for w in [word_matrix(SEED_WORD, 5), *random_words(25, max_len=10, k_range=3, seed=29)]:
            z = analytic.adapted_point(w)
            gz = w.apply(z)
            n = 2 * _u_gamma_truncation(z, gz)
            log_ratio = (
                2j * math.pi * analytic._eta_data(5).v * (gz - z) / math.sqrt(5)
                + analytic.log_eta_tail(5, gz, n)
                - analytic.log_eta_tail(5, z, n)
            )
            doubled = abs(cmath.exp(log_ratio) - cmath.exp(2j * math.pi * predicted_u(w) / 5))
            assert abs(check_u_gamma(w) - doubled) < 1e-12, w.ks

    def test_numeric_multiplier_on_random_words(self):
        for w in random_words(25, max_len=6, k_range=2, seed=13):
            assert check_u_gamma(w) < 1e-4

    @pytest.mark.parametrize("D", [13, 17, 21, 29])
    def test_multiplier_above_5(self, D):
        """Above D = 5, m is an integer: the multiplier is 1 on every word,
        and the ratio meets it to 1e-6 at the adapted point."""
        for w in random_words(60, max_len=6, k_range=2, seed=D, D=D):
            assert predicted_u(w) == 0
            assert check_u_gamma(w) < 1e-6, w.ks

    @pytest.mark.parametrize("D", [0, 1, 4, 9, 25])
    def test_non_fundamental_discriminant_rejected(self, D):
        with pytest.raises(ValueError, match="not a fundamental"):
            word_matrix([1, 1], D)

    def test_conditioning_error_on_explicit_bad_point(self):
        w = word_matrix([2, 2, 2, 2, 2, 2], 5)
        with pytest.raises(ConditioningError):
            check_u_gamma(w, complex(0.0, 1e-9))

    @pytest.mark.parametrize("z", [1e-17j, complex(-6, 1e-300)])
    def test_conditioning_error_where_q_rounds_to_one(self, z):
        """No truncation converges at |q| = 1: the evaluation refuses instead
        of taking log(1 - q) at q = 1 or summing a product that does not
        converge."""
        with pytest.raises(ConditioningError, match="rounds to 1"):
            eval_eta_numeric(5, z)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            word_matrix([], 5)


class TestEnvelope:
    def test_constants_d5(self):
        cons = envelope_constants(5)
        assert math.isclose(cons.c_tilde, math.pi * math.sqrt(2), rel_tol=1e-12)
        assert math.isclose(cons.c_remark, math.pi * math.sqrt(10), rel_tol=1e-12)
        assert cons.c_used == cons.c_remark
        assert math.isclose(cons.c0, math.pi * math.sqrt(2 / 3), rel_tol=1e-12)

    def test_composite_has_no_remark_constant(self):
        cons = envelope_constants(21)
        assert cons.c_remark is None
        assert cons.cD == cons.c0
        assert cons.c_used == cons.c_tilde

    def test_envelope_at_zero_is_finite(self):
        assert bound_envelope(5, 0) == 0.0
        assert math.isfinite(bound_envelope(5, 0))

    def test_envelope_rejects_a_negative_order(self):
        with pytest.raises(ValueError, match="N must be >= 0"):
            bound_envelope(5, -1)

    def test_envelope_dominates_coefficients_to_100(self):
        for D in (5, 13, 17):
            series = eta_series(D, 100)
            for N in range(1, 101):
                val = abs(float(embed_real(series.coeffs[N])))
                assert val <= bound_envelope(D, N)
