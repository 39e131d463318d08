import inspect
import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from oracles import (
    fundamental_discriminants,
    l_function_hurwitz,
    l_prime_zero_decimal,
    l_prime_zero_loggamma,
)

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

    @pytest.mark.parametrize("digits", [20, 45, 50, 60])
    def test_matches_the_decimal_ln_reference(self, digits):
        """The fixed-point route gives the Decimal that Decimal.ln gave, at
        the digits lvalues used (50) among others."""
        for D in fundamental_discriminants(500):
            chi = build_char_table(D)
            assert l_prime_zero(chi, digits) == l_prime_zero_decimal(chi, digits), D

    @pytest.mark.parametrize("digits", [0, -3])
    def test_digits_below_one_raise_value_error(self, digits):
        with pytest.raises(ValueError, match="digits"):
            l_prime_zero(build_char_table(5), digits)

    @pytest.mark.parametrize("digits", [2.0, "3", None])
    def test_digits_not_an_int_raise_type_error(self, digits):
        with pytest.raises(TypeError, match="digits"):
            l_prime_zero(build_char_table(5), digits)

    def test_one_digit(self):
        assert l_prime_zero(build_char_table(5), 1) == Decimal("0.5")

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


# Output units of the fixed-point log in these tests: mpmath's 80 digits
# (266 bits) leave every reference within 2^-40 of a unit, the largest value
# (about 7 * 10^4, the log of a 10^5-bit v) included.
LOG_BITS = 200


def _log_cases():
    """(v, s): powers of two, v = 2^s +- 1 (logs near 0), one bit below and
    above each power of two at s = 0 (x near 2 and near 1), and 10^5-bit v
    at s = 0 and s = 10^5 (e about 10^5, and near 0)."""
    cases = [(1, 0), (1 << 40, 40), (1 << 300, 3), (1, 500)]
    for s in range(1, 140, 3):
        cases += [((1 << s) - 1, s), ((1 << s) + 1, s)]
    for L in range(1, 140):
        cases += [((1 << L) - 1, 0), (1 << L, 0), ((1 << L) + 1, 0)]
    big = random.Random(5).getrandbits(10**5) | 1 << (10**5 - 1)
    return cases + [(big, 0), (big, 10**5), ((1 << 10**5) - 1, 0), ((1 << 10**5) + 1, 10**5)]


LOG_CASES = _log_cases()


def _worst_log_error(log_fixed, bits=LOG_BITS):
    """The largest |log_fixed(v, s, bits) - 2^bits ln(v / 2^s)| over
    LOG_CASES, against mpmath at 80 digits, in output units."""
    worst = 0
    with mpmath.workdps(80):
        for v, s in LOG_CASES:
            exact = (mpmath.log(v) - s * mpmath.log(2)) * mpmath.mpf(2) ** bits
            worst = max(worst, abs(log_fixed(v, s, bits) - exact))
    return worst


def _mutant(old, new, name="log_fixed"):
    """lseries' function `name` built from lseries' source with `old`
    replaced by `new` (each must appear once)."""
    source = inspect.getsource(lseries)
    assert source.count(old) == 1, old
    namespace = {"__name__": "lseries_mutant"}
    exec(compile(source.replace(old, new), "lseries_mutant", "exec"), namespace)
    return namespace[name]


# _ln2's body, which log_fixed and exp_fixed share, with ln 2 from a double
WRONG_LN2 = ("2 * _odd_series((1 << p) // 3, p, cut)", "int(math.log(2) * (1 << p))")


class TestLogFixed:
    def test_within_one_unit_of_mpmath(self):
        assert _worst_log_error(lseries.log_fixed) < 1

    @pytest.mark.parametrize("s", [0, 1, 7, 200])
    @pytest.mark.parametrize("bits", [0, LOG_BITS])
    def test_power_of_two_at_its_own_scale_is_zero(self, s, bits):
        assert lseries.log_fixed(1 << s, s, bits) == 0

    @pytest.mark.parametrize("bits", [0, 1, 2, 10, 53, 64])
    def test_few_bits(self, bits):
        """The guard bits are set from bits and e, so short outputs hold the
        one-unit bound too."""
        assert _worst_log_error(lseries.log_fixed, bits) < 1

    @pytest.mark.parametrize("v", [0, -1, -(1 << 70)])
    def test_non_positive_argument_raises(self, v):
        with pytest.raises(ValueError, match="not positive"):
            lseries.log_fixed(v, 0, 10)

    @pytest.mark.parametrize(
        "old, new",
        [
            # ln 2 from a double instead of 2 atanh(1/3)
            WRONG_LN2,
            # the exponent off by one
            ("    e = n - s\n", "    e = n - s + 1\n"),
            # each series cut one term short
            (
                "while abs(term := z // j) >= cut:",
                "while abs(term := z // j) >= cut and abs((z * z2 >> p) // (j + 2)) >= cut:",
            ),
        ],
        ids=["wrong-ln2", "exponent-off-by-one", "series-one-term-short"],
    )
    def test_mutant_fails(self, old, new):
        assert _worst_log_error(_mutant(old, new)) >= 1


def _exp_cases(bits):
    """x in units of 2^-bits: 0 and one unit either side, whole numbers from
    -1000 to 10^5 (k up to 1.4 * 10^5), seeded draws in (-50, 50), and small
    x (r near 0, where the Taylor terms shrink fastest)."""
    one = 1 << bits
    rng = random.Random(11)
    cases = [0, 1, -1, one, -one, 3 * one, -7 * one, 1000 * one, -1000 * one, 10**5 * one]
    cases += [rng.randrange(-50 * one, 50 * one) for _ in range(80)]
    return cases + [rng.randrange(1, 1 << max(1, bits - s)) for s in range(0, 60, 3)]


def _worst_exp_error(exp_fixed, bits=LOG_BITS):
    """The largest |exp_fixed(x, bits) - 2^bits V| / (1 + V), V = exp(x / 2^bits),
    over _exp_cases, against mpmath at 80 digits: below 1 is within one unit
    plus 2^-bits of the value."""
    worst = 0
    with mpmath.workdps(80):
        for x in _exp_cases(bits):
            value = mpmath.exp(mpmath.mpf(x) / mpmath.mpf(2) ** bits)
            error = exp_fixed(x, bits) - value * mpmath.mpf(2) ** bits
            worst = max(worst, abs(error) / (1 + value))
    return worst


class TestExpFixed:
    def test_within_one_unit_of_mpmath(self):
        assert _worst_exp_error(lseries.exp_fixed) < 1

    @pytest.mark.parametrize("bits", [0, 1, 2, 10, 53, 64])
    def test_few_bits(self, bits):
        assert _worst_exp_error(lseries.exp_fixed, bits) < 1

    @pytest.mark.parametrize("bits", [0, 7, LOG_BITS])
    def test_zero_is_one(self, bits):
        assert lseries.exp_fixed(0, bits) == 1 << bits

    def test_inverts_log_fixed(self):
        """A log within one unit is v within v units; exp adds 1 + v more."""
        for v in (1, 3, 10**6, (1 << 100) + 1):
            x = lseries.log_fixed(v, 0, LOG_BITS)
            assert abs(lseries.exp_fixed(x, LOG_BITS) - (v << LOG_BITS)) <= 2 * v + 1

    @pytest.mark.parametrize(
        "old, new",
        [
            # ln 2 from a double instead of 2 atanh(1/3)
            WRONG_LN2,
            # e^r scaled by 2^(k + 1) instead of 2^k
            ("    s = g - k\n", "    s = g - k - 1\n"),
            # the Taylor series cut one term short
            (
                "while (term := (term * r >> p) // j) >= cut:",
                "while (term := (term * r >> p) // j) >= cut and (term * r >> p) // (j + 1) >= cut:",
            ),
        ],
        ids=["wrong-ln2", "k-off-by-one", "series-one-term-short"],
    )
    def test_mutant_fails(self, old, new):
        assert _worst_exp_error(_mutant(old, new, "exp_fixed")) >= 1


class TestPiFixed:
    @pytest.mark.parametrize("bits", [0, 1, 2, 10, 53, 64, LOG_BITS])
    def test_within_one_unit_of_mpmath(self, bits):
        with mpmath.workdps(80):
            assert abs(lseries.pi_fixed(bits) - mpmath.pi * mpmath.mpf(2) ** bits) < 1

    def test_mutant_fails(self):
        """arctan summed with the sign of atanh is off by far more."""
        arctan = "_odd_series((1 << p) // 5, p, 1, -1)"
        pi_fixed = _mutant(arctan, arctan.replace("-1)", "1)"), "pi_fixed")
        with mpmath.workdps(80):
            assert abs(pi_fixed(LOG_BITS) - mpmath.pi * mpmath.mpf(2) ** LOG_BITS) >= 1
