import cmath
import math
import random

import pytest
from oracles import log_eta_tail_direct, phi_sharp_direct, word_matrix_by_generators

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
    random_words,
    sample_half_plane_points,
    check_phi_relation,
    word_matrix,
)
from hecke_eta.characters import build_char_table, fundamental_discriminants
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

    def test_matches_exact_coefficients(self):
        # truncated product vs exact Fourier series, both at the same point
        z = complex(0.2, 1.1)
        series = eta_series(5, 60)
        q = cmath.exp(2j * math.pi * z / math.sqrt(5))
        v = float(series.valuation)
        total = 0
        for k, c in enumerate(series.coeffs):
            total += complex(embed_real(c)) * q**k
        total *= cmath.exp(2j * math.pi * v * z / math.sqrt(5))
        assert abs(total - eval_eta_numeric(5, z, 300)) < 1e-12

    def test_truncation_stability_doubling(self):
        for D in (5, 13):
            for z in sample_half_plane_points(D, 5, seed=5):
                a = eval_eta_numeric(D, z, 300)
                b = eval_eta_numeric(D, z, 600)
                assert abs(a - b) < 1e-12


NMAXES = (1, 50, 300, 3000)


def _split_kind(D, z, n_max):
    data = analytic._eta_data(D)
    n0, _ = analytic._split(2 * math.pi * z.imag / data.sqrt_d, n_max, data.phi, data.sqrt_d)
    return "direct" if n0 == n_max else ("series" if n0 == 0 else "mixed")


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
        near = sample_half_plane_points(D, 1, seed=D, im_range=(0.01, 0.1))[0]
        for w in (z, -1 / z, z + math.sqrt(D), near):
            self._assert_agrees(D, w, n_max)

    @pytest.mark.parametrize("n_max", NMAXES)
    @pytest.mark.parametrize("D", [5, 33, 101])
    def test_every_truncation(self, D, n_max):
        for z in sample_half_plane_points(D, 2, seed=n_max, im_range=(0.01, 1.5)):
            for w in (z, -1 / z, z + math.sqrt(D)):
                self._assert_agrees(D, w, n_max)

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

    @pytest.mark.parametrize("n_max", [1, 50, 400])
    @pytest.mark.parametrize("D", [5, 21, 29])
    def test_phi_sharp(self, D, n_max):
        import mpmath

        ct = build_char_table(D)
        for y in (0.5, 2.0):
            got = analytic._log_phi_sharp(ct, y, n_max, 30)
            ref = phi_sharp_direct(D, y, n_max, 30)
            with mpmath.workdps(40):
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


class TestPhiRelation:
    @pytest.mark.parametrize("D", [5, 13])
    @pytest.mark.parametrize("y", [0.7, 1.0, 1.5])
    def test_residuals(self, D, y):
        assert check_phi_relation(D, y, 400, 30) < 1e-8

    def test_mirrored_pair(self):
        # y and 1/y probe the same identity from both sides
        assert check_phi_relation(5, 2.0, 400, 30) < 1e-8
        assert check_phi_relation(5, 0.5, 400, 30) < 1e-8

    def test_self_consistency_of_l_prime_value(self):
        # the log-Gamma value of L'(0, chi_5) closes the identity at y = 1
        assert check_phi_relation(5, 1.0, 400, 30) < 1e-10

    def test_rejects_bad_y(self):
        with pytest.raises(ValueError):
            check_phi_relation(5, -1.0)


class TestWords:
    def test_base_case_matrix(self):
        w = word_matrix([1, 1], 5)
        assert w.mat == (((0, 1), (4, 0)), ((1, 0), (0, 1)))
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

    def test_determinant_is_one_symbolically(self):
        # word_matrix asserts det = 1 internally; exercise a spread of words
        for w in random_words(200, max_len=5, k_range=4, seed=7):
            (m00, m01), (m10, m11) = w.mat
            det_u = m00[0] * m11[0] + 5 * m00[1] * m11[1] - (
                m01[0] * m10[0] + 5 * m01[1] * m10[1]
            )
            det_v = m00[0] * m11[1] + m00[1] * m11[0] - (
                m01[0] * m10[1] + m01[1] * m10[0]
            )
            assert (det_u, det_v) == (1, 0)

    def test_numeric_multiplier_on_random_words(self):
        for w in random_words(25, max_len=6, k_range=2, seed=13):
            assert check_u_gamma(w) < 1e-4

    def test_unsupported_discriminant(self):
        w = word_matrix([1, 1], 13)
        with pytest.raises(ValueError):
            predicted_u(w)

    def test_conditioning_error_on_explicit_bad_point(self):
        w = word_matrix([2, 2, 2, 2, 2, 2], 5)
        with pytest.raises(ConditioningError):
            check_u_gamma(w, complex(0.0, 1e-9))

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

    def test_envelope_dominates_coefficients_to_100(self):
        for D in (5, 13, 17):
            series = eta_series(D, 100)
            for N in range(1, 101):
                val = abs(float(embed_real(series.coeffs[N])))
                assert val <= bound_envelope(D, N)
