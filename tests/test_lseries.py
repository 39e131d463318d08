import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from oracles import fundamental_discriminants, l_function_hurwitz, l_prime_zero_loggamma

from hecke_eta import lseries
from hecke_eta.characters import CharacterError, build_char_table
from hecke_eta.lseries import LValueError, l_minus_one, l_prime_zero


class TestLMinusOne:
    def test_d5(self):
        rec = l_minus_one(build_char_table(5))
        assert rec.l_minus_one == Fraction(-2, 5)
        assert rec.m_exponent == Fraction(1, 5)
        assert rec.S_chi == 4

    def test_d13(self):
        rec = l_minus_one(build_char_table(13))
        assert rec.S_chi == 52
        assert rec.l_minus_one == -2
        assert rec.m_exponent == 1

    def test_d17(self):
        rec = l_minus_one(build_char_table(17))
        assert rec.S_chi == 136
        assert rec.l_minus_one == -4
        assert rec.m_exponent == 2

    def test_structure_for_all_fundamental_d_to_1000(self):
        for D in fundamental_discriminants(1000):
            rec = l_minus_one(build_char_table(D))
            if D == 5:
                continue
            assert rec.l_minus_one.denominator == 1
            assert rec.l_minus_one < 0
            assert rec.l_minus_one % 2 == 0
            assert rec.S_chi % (4 * D) == 0
            assert rec.m_exponent > 0

    @pytest.mark.parametrize("D, match", [(5, "expected -2/5"), (13, "not a negative even integer")])
    def test_corrupted_character_table_raises(self, D, match):
        chi = list(build_char_table(D))
        chi[2] = chi[D - 2] = -chi[2]
        with pytest.raises(LValueError, match=match):
            l_minus_one(tuple(chi))
        with pytest.raises(LValueError, match=match):
            lseries.m_exponent(tuple(chi))

    def test_m_exponent_pair_matches_the_fraction(self):
        for D in fundamental_discriminants(1000):
            chi = build_char_table(D)
            num, den = lseries.m_exponent(chi)
            assert Fraction(num, den) == l_minus_one(chi).m_exponent
            assert math.gcd(num, den) == 1

    @pytest.mark.parametrize(
        "D, S, match",
        [
            (5, 9, "expected -2/5"),
            (5, -4, "expected -2/5"),
            (13, 26, "not a negative even integer"),
            (13, -52, "not a negative even integer"),
            (13, 0, "not a negative even integer"),
            (17, 136 + 4, "not a negative even integer"),
        ],
    )
    def test_m_exponent_refuses_a_wrong_character_sum(self, D, S, match):
        """A synthetic row whose sum S = sum n^2 chi(n) is off: not 4 at
        D = 5, not a positive multiple of 4D above."""
        chi = [0] * D
        chi[1] = S  # only n = 1 contributes to the sum
        assert lseries._char_sum(chi) == S
        with pytest.raises(LValueError, match=match):
            lseries.m_exponent(chi)
        with pytest.raises(LValueError, match=match):
            l_minus_one(chi)

    def test_invalid_modulus_rejected_upstream(self):
        with pytest.raises(CharacterError):
            build_char_table(8)


class TestLPrimeZero:
    def test_finite_difference_oracle(self):
        # central difference of the Hurwitz-zeta continuation at s = 0
        for D in (5, 13):
            chi = build_char_table(D)
            direct = mpmath.mpf(str(l_prime_zero(chi, digits=40)))
            with mpmath.workdps(50):
                h = mpmath.mpf(10) ** -10
                fd = (
                    l_function_hurwitz(chi, h, digits=40)
                    - l_function_hurwitz(chi, -h, digits=40)
                ) / (2 * h)
                assert abs(direct - fd) < mpmath.mpf(10) ** -12

    def test_l_at_zero_vanishes_for_even_character(self):
        # sanity on the same continuation: L(0, chi_D) = 0 for even chi
        for D in (5, 17):
            chi = build_char_table(D)
            with mpmath.workdps(40):
                val = l_function_hurwitz(chi, mpmath.mpf(10) ** -25, digits=30)
                assert abs(val) < mpmath.mpf(10) ** -20

    def test_requested_digits(self):
        chi = build_char_table(5)
        a = l_prime_zero(chi, digits=20)
        b = l_prime_zero(chi, digits=45)
        assert isinstance(a, Decimal)
        assert len(a.as_tuple().digits) == 20
        assert abs(a - b) < Decimal("1e-18")

    def test_matches_log_gamma_reference(self):
        for D in fundamental_discriminants(300):
            chi = build_char_table(D)
            ref = l_prime_zero_loggamma(chi, digits=50)
            with mpmath.workdps(60):
                assert abs(mpmath.mpf(str(l_prime_zero(chi, 50))) - ref) < mpmath.mpf(10) ** -45

    @pytest.mark.parametrize(
        "D, unit", [(5, (1, 1)), (13, (3, 1)), (21, (5, 1)), (61, (39, 5)), (109, (261, 25))]
    )
    def test_fundamental_unit(self, D, unit):
        assert lseries._fundamental_unit(D) == unit

    @pytest.mark.parametrize("D, h", [(229, 3), (257, 3), (401, 5), (577, 7), (1129, 9)])
    def test_class_number(self, D, h):
        t, u = lseries._fundamental_unit(D)
        log_eps = math.log((t + u * math.sqrt(D)) / 2)
        assert lseries._class_number(build_char_table(D), log_eps) == h

    def test_corrupted_unit_raises(self, monkeypatch):
        t, u = lseries._fundamental_unit(229)
        monkeypatch.setattr(lseries, "_fundamental_unit", lambda D: (t + 2, u))
        with pytest.raises(LValueError, match="not a unit"):
            l_prime_zero(build_char_table(229))

    def test_unit_that_is_not_fundamental_raises(self, monkeypatch):
        # eps^2 passes the norm check, but h(229) = 3 is odd, so the quotient
        # by log eps^2 is 3/2
        t, u = lseries._fundamental_unit(229)
        square = ((t * t + 229 * u * u) // 2, t * u)
        monkeypatch.setattr(lseries, "_fundamental_unit", lambda D: square)
        with pytest.raises(LValueError, match="class number"):
            l_prime_zero(build_char_table(229))

    def test_corrupted_character_table_raises(self):
        chi = build_char_table(229)
        values = list(chi)
        values[2] = values[229 - 2] = -values[2]
        with pytest.raises(LValueError, match="class number"):
            l_prime_zero(tuple(values))
