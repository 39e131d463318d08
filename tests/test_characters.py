import random
from math import gcd, isqrt

import pytest
from oracles import jacobi, residues, squares_mod

from hecke_eta import characters
from hecke_eta.characters import (
    CharacterError,
    build_char_table,
    euler_phi,
    fundamental_discriminants,
    is_fundamental,
    kronecker,
    moebius,
)


class TestKronecker:
    def test_examples(self):
        assert kronecker(2, 5) == -1
        assert kronecker(1, 13) == 1
        assert kronecker(4, 17) == 1

    def test_periodicity(self):
        for n in range(-20, 40):
            assert kronecker(n, 13) == kronecker(n % 13, 13)

    def test_invalid_modulus(self):
        with pytest.raises(CharacterError):
            kronecker(2, 9)
        with pytest.raises(CharacterError):
            kronecker(2, 7)

    def test_against_square_enumeration_for_primes(self):
        primes = [D for D in fundamental_discriminants(200) if euler_phi(D) == D - 1]
        assert primes[:3] == [5, 13, 17]
        for D in primes:
            squares = squares_mod(D)
            for n in range(D):
                if n % D == 0:
                    expected = 0
                elif n in squares:
                    expected = 1
                else:
                    expected = -1
                assert kronecker(n, D) == expected


class TestIsFundamental:
    def test_examples(self):
        assert is_fundamental(5)
        assert not is_fundamental(9)
        assert is_fundamental(21)

    def test_more_cases(self):
        assert is_fundamental(13) and is_fundamental(17) and is_fundamental(33)
        assert not is_fundamental(15)  # 3 mod 4
        assert not is_fundamental(25)  # square
        assert not is_fundamental(45)  # 9 * 5, not squarefree
        assert not is_fundamental(1) and not is_fundamental(-3)


def _squarefree(n):
    return all(n % (d * d) for d in range(2, isqrt(n) + 1))


class TestFactorisationHelpers:
    """The helpers built on prime_factors, against brute force for n <= 2000."""

    def test_is_fundamental(self):
        for n in range(1, 2001):
            assert is_fundamental(n) == (n % 4 == 1 and n >= 5 and _squarefree(n))

    def test_euler_phi(self):
        for n in range(1, 2001):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    def test_moebius(self):
        for n in range(1, 2001):
            primes = [
                p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))
            ]
            assert moebius(n) == ((-1) ** len(primes) if _squarefree(n) else 0)


class TestCharTable:
    def test_d5(self):
        ct = build_char_table(5)
        assert ct.values == (0, 1, -1, -1, 1)
        assert residues(ct, 1) == (1, 4)
        assert residues(ct, -1) == (2, 3)

    def test_d13_residues(self):
        ct = build_char_table(13)
        assert residues(ct, 1) == (1, 3, 4, 9, 10, 12)

    def test_d17_cardinality(self):
        ct = build_char_table(17)
        assert len(residues(ct, 1)) == 8 == euler_phi(17) // 2

    def test_checks_the_discriminant_once(self, monkeypatch):
        expected = tuple(kronecker(n, 101) for n in range(101))
        calls = []

        def counted(D):
            calls.append(D)
            return is_fundamental(D)

        monkeypatch.setattr(characters, "is_fundamental", counted)
        assert build_char_table(101).values == expected
        assert calls == [101]

    def test_rejects_non_fundamental(self):
        for D in (9, 15, 25, 45, 8, 1):
            with pytest.raises(CharacterError):
                build_char_table(D)

    def test_balance_and_evenness_up_to_500(self):
        for D in fundamental_discriminants(500):
            ct = build_char_table(D)
            assert sum(ct.values) == 0
            assert ct.values[D - 1] == 1
            assert sum(n * ct.values[n % D] for n in range(1, D + 1)) == 0
            assert len(residues(ct, 1)) == len(residues(ct, -1)) == euler_phi(D) // 2

    def test_complete_multiplicativity_small_d_exhaustive(self):
        for D in fundamental_discriminants(101):
            ct = build_char_table(D)
            for m in range(D):
                for n in range(D):
                    assert ct.values[m * n % D] == ct.values[m] * ct.values[n]

    def test_complete_multiplicativity_sampled_to_1000(self):
        rng = random.Random(12345)
        for D in fundamental_discriminants(1000):
            ct = build_char_table(D)
            for _ in range(200):
                m = rng.randrange(D)
                n = rng.randrange(D)
                assert ct.values[m * n % D] == ct.values[m] * ct.values[n]

    @pytest.mark.parametrize(
        "Ds", [fundamental_discriminants(3000), [5005, 85085, 100049]], ids=["to3000", "large"]
    )
    def test_equals_the_jacobi_row(self, Ds):
        # the Legendre product against the reciprocity loop, at every n;
        # 85085 = 5 * 7 * 11 * 13 * 17
        for D in Ds:
            assert build_char_table(D).values == tuple(jacobi(n, D) for n in range(D))

    def test_equals_the_jacobi_symbol_sampled_at_1000001(self):
        D = 1000001  # 101 * 9901
        values = build_char_table(D).values
        rng = random.Random(1000001)
        for n in (rng.randrange(D) for _ in range(20000)):
            assert values[n] == jacobi(n, D)

    @pytest.mark.parametrize("D", [5, 13, 65, 1105])
    def test_flipped_unit_pair_in_every_row_is_rejected(self, monkeypatch, D):
        """Each row of period p gets the pair a, p - a flipped.  Every p | D is
        1 mod 4 here, so chi_p(a) = chi_p(-a), every row's sum turns +-4 and
        sum chi(n) over a period, their product, is no longer 0.  (For p = 3
        mod 4 the pair has opposite signs, and a flipped row stays odd and
        balanced, which none of the guards can see.)"""
        legendre_row = characters._legendre_row

        def flipped(p):
            row = legendre_row(p)
            a = (p - 1) // 2
            row[a], row[p - a] = -row[a], -row[p - a]
            return row

        monkeypatch.setattr(characters, "_legendre_row", flipped)
        with pytest.raises(CharacterError):
            build_char_table(D)

    def test_flipped_pair_in_a_row_of_p_3_mod_4_is_rejected(self, monkeypatch):
        """The row of 7 flipped at 3 and 4 stays odd and balanced, and the
        table of 1001 = 7 * 11 * 13 built from it passes every invariant
        of chi_D but multiplicativity (240 of its entries are wrong); the
        check of each row against a primitive root sees it."""
        legendre_row = characters._legendre_row

        def flipped(p):
            row = legendre_row(p)
            if p == 7:
                row[3], row[4] = -row[3], -row[4]
            return row

        monkeypatch.setattr(characters, "_legendre_row", flipped)
        with pytest.raises(CharacterError, match="row of p=7"):
            build_char_table(1001)

    def test_zero_exactly_on_non_coprime(self):
        ct = build_char_table(21)
        for n in range(21):
            assert (ct.values[n] == 0) == (gcd(n, 21) > 1)
