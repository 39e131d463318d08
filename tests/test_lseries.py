from fractions import Fraction

import mpmath
import pytest
from oracles import l_function_hurwitz

from hecke_eta.characters import CharacterError, build_char_table, fundamental_discriminants
from hecke_eta.lseries import l_minus_one, l_prime_zero


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

    def test_invalid_modulus_rejected_upstream(self):
        with pytest.raises(CharacterError):
            build_char_table(8)


class TestLPrimeZero:
    def test_finite_difference_oracle(self):
        # central difference of the Hurwitz-zeta continuation at s = 0
        for D in (5, 13):
            ct = build_char_table(D)
            direct = l_prime_zero(ct, digits=40)
            with mpmath.workdps(50):
                h = mpmath.mpf(10) ** -10
                fd = (
                    l_function_hurwitz(ct, h, digits=40)
                    - l_function_hurwitz(ct, -h, digits=40)
                ) / (2 * h)
                assert abs(direct - fd) < mpmath.mpf(10) ** -12

    def test_l_at_zero_vanishes_for_even_character(self):
        # sanity on the same continuation: L(0, chi_D) = 0 for even chi
        for D in (5, 17):
            ct = build_char_table(D)
            with mpmath.workdps(40):
                val = l_function_hurwitz(ct, mpmath.mpf(10) ** -25, digits=30)
                assert abs(val) < mpmath.mpf(10) ** -20

    def test_requested_digits(self):
        ct = build_char_table(5)
        a = l_prime_zero(ct, digits=20)
        b = l_prime_zero(ct, digits=45)
        assert abs(a - b) < mpmath.mpf(10) ** -18
