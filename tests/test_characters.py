import random
from math import gcd, isqrt

import pytest
from oracles import fundamental_discriminants, jacobi, residues, squares_mod

from hecke_eta import characters
from hecke_eta.characters import (
    CharacterError,
    build_char_table,
    euler_phi,
    is_fundamental,
    moebius,
)


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
        chi = build_char_table(5)
        assert chi == (0, 1, -1, -1, 1)
        assert residues(chi, 1) == (1, 4)
        assert residues(chi, -1) == (2, 3)

    def test_d13_residues(self):
        assert residues(build_char_table(13), 1) == (1, 3, 4, 9, 10, 12)

    def test_d17_cardinality(self):
        assert len(residues(build_char_table(17), 1)) == 8 == euler_phi(17) // 2

    def test_checks_the_discriminant_once(self, monkeypatch):
        expected = tuple(jacobi(n, 101) for n in range(101))
        calls = []

        def counted(D):
            calls.append(D)
            return is_fundamental(D)

        monkeypatch.setattr(characters, "is_fundamental", counted)
        assert build_char_table(101) == expected
        assert calls == [101]

    def test_rejects_non_fundamental(self):
        for D in (9, 15, 25, 45, 8, 1):
            with pytest.raises(CharacterError):
                build_char_table(D)

    def test_balance_and_evenness_up_to_500(self):
        for D in fundamental_discriminants(500):
            chi = build_char_table(D)
            assert len(chi) == D
            assert sum(chi) == 0
            assert chi[D - 1] == 1
            assert sum(n * chi[n % D] for n in range(1, D + 1)) == 0
            assert len(residues(chi, 1)) == len(residues(chi, -1)) == euler_phi(D) // 2

    def test_complete_multiplicativity_small_d_exhaustive(self):
        for D in fundamental_discriminants(101):
            chi = build_char_table(D)
            for m in range(D):
                for n in range(D):
                    assert chi[m * n % D] == chi[m] * chi[n]

    def test_complete_multiplicativity_sampled_to_1000(self):
        rng = random.Random(12345)
        for D in fundamental_discriminants(1000):
            chi = build_char_table(D)
            for _ in range(200):
                m = rng.randrange(D)
                n = rng.randrange(D)
                assert chi[m * n % D] == chi[m] * chi[n]

    @pytest.mark.parametrize(
        "Ds", [fundamental_discriminants(3000), [5005, 85085, 100049]], ids=["to3000", "large"]
    )
    def test_equals_the_jacobi_row(self, Ds):
        # the Legendre product against the reciprocity loop, at every n;
        # 85085 = 5 * 7 * 11 * 13 * 17
        for D in Ds:
            assert build_char_table(D) == tuple(jacobi(n, D) for n in range(D))

    def test_equals_the_jacobi_symbol_sampled_at_1000001(self):
        D = 1000001  # 101 * 9901
        values = build_char_table(D)
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
        chi = build_char_table(21)
        for n in range(21):
            assert (chi[n] == 0) == (gcd(n, 21) > 1)

    def test_against_square_enumeration_for_primes(self):
        primes = [D for D in fundamental_discriminants(200) if euler_phi(D) == D - 1]
        assert primes[:3] == [5, 13, 17]
        for D in primes:
            squares = squares_mod(D)
            expected = tuple(0 if n == 0 else 1 if n in squares else -1 for n in range(D))
            assert build_char_table(D) == expected


def _residue_pair(chi, sign):
    """The least unit a > 1 with chi(a) = sign, and -a: neither is +-1."""
    a = next(a for a in range(2, len(chi) - 1) if chi[a] == sign)
    return a, len(chi) - a


class TestCharTableGuards:
    """Each invariant checked after the product of the Legendre rows, reached
    alone: the product's output is corrupted so that this guard, and no
    guard before it, fails."""

    D = 21  # 3 * 7

    def _build(self, monkeypatch, corrupt):
        product = characters._prime_row_product

        def corrupted(D, row_of):
            chi = list(product(D, row_of))
            corrupt(chi)
            return tuple(chi)

        monkeypatch.setattr(characters, "_prime_row_product", corrupted)
        return build_char_table(self.D)

    def test_chi_of_one(self, monkeypatch):
        def negate(chi):
            chi[:] = [-c for c in chi]

        with pytest.raises(CharacterError, match=r"chi\(1\) != 1"):
            self._build(monkeypatch, negate)

    @pytest.mark.parametrize("swap", [True, False], ids=["swapped", "unit_zeroed"])
    def test_zero_pattern(self, monkeypatch, swap):
        """A 0 swapped from the multiple 3 of p = 3 to a residue keeps the
        count of zeros, and only chi[::3] sees it; a residue set to 0 keeps
        every chi[::p] zero, and only the count sees it."""

        def corrupt(chi):
            a, _ = _residue_pair(chi, 1)
            chi[3], chi[a] = (chi[a] if swap else 0), 0

        with pytest.raises(CharacterError, match="zero pattern"):
            self._build(monkeypatch, corrupt)

    def test_evenness(self, monkeypatch):
        def swap_minus_one_with_a_non_residue(chi):
            b, _ = _residue_pair(chi, -1)
            chi[-1], chi[b] = chi[b], chi[-1]

        with pytest.raises(CharacterError, match="not even"):
            self._build(monkeypatch, swap_minus_one_with_a_non_residue)

    def test_balance(self, monkeypatch):
        def flip_a_non_residue_pair(chi):
            for b in _residue_pair(chi, -1):
                chi[b] = 1

        with pytest.raises(CharacterError, match=r"sum chi\(n\) != 0"):
            self._build(monkeypatch, flip_a_non_residue_pair)

    def test_first_moment(self, monkeypatch):
        """A residue a != +-1 swapped with a non-residue b != -a keeps the zero
        pattern and the balance and moves sum n chi(n) off 0.  With chi(0) = 0
        and the balance, evenness implies sum n chi(n) = 0, so the evenness
        guard refuses the row."""
        moments = []

        def swap_a_residue_and_a_non_residue(chi):
            a, _ = _residue_pair(chi, 1)
            b, _ = _residue_pair(chi, -1)
            chi[a], chi[b] = chi[b], chi[a]
            moments.append(sum(n * c for n, c in enumerate(chi)))

        with pytest.raises(CharacterError, match="not even"):
            self._build(monkeypatch, swap_a_residue_and_a_non_residue)
        assert moments and moments[0] != 0

    def test_cardinality(self, monkeypatch):
        def double_a_pair_of_each_sign(chi):
            for sign in (1, -1):
                for a in _residue_pair(chi, sign):
                    chi[a] = 2 * sign

        with pytest.raises(CharacterError, match=r"phi\(D\)/2 times"):
            self._build(monkeypatch, double_a_pair_of_each_sign)
