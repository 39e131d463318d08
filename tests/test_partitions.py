import random
from collections import Counter

import pytest

from oracles import (
    count_partitions_with_parts,
    dp_partition_counts,
    enumerate_partitions,
    euler_product_plain,
    length_distribution_by_parts,
)

from hecke_eta import partitions
from hecke_eta.characters import build_char_table
from hecke_eta.partitions import (
    _euler_product,
    build_partition_tables,
    distinct_length_distribution,
    length_distribution,
    p_nr_table,
    p_table,
    pentagonal_int_series,
)


class TestEulerProduct:
    @pytest.mark.parametrize("N", [0, 1, 2, 9, 40])
    def test_random_factor_lists(self, N):
        """Both signs, repeated d and d > N, against the factor-by-factor
        schoolbook product."""
        rng = random.Random(N)
        for _ in range(20):
            factors = [
                (rng.randint(1, N + 3), rng.choice((-1, 0, 1))) for _ in range(rng.randint(0, 12))
            ]
            assert _euler_product(factors, N) == euler_product_plain(factors, N)

    def test_empty_product_and_order_zero(self):
        assert _euler_product([], 4) == [1, 0, 0, 0, 0]
        assert _euler_product([(1, 1), (1, -1), (2, -1)], 0) == [1]


class TestPTable:
    def test_small_values_by_enumeration(self):
        p = p_table(12)
        for k in range(13):
            assert p[k] == sum(1 for _ in enumerate_partitions(k))
        assert p[5] == 7
        assert p[0] == 1

    def test_p100_against_dp_oracle(self):
        p = p_table(200)
        dp = dp_partition_counts(200)
        assert p == dp
        assert p[100] == 190569292

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            p_table(-1)

    def test_orders_zero_and_one(self):
        assert p_table(0) == [1]
        assert p_table(1) == [1, 1]


class TestPentagonal:
    def test_first_orders(self):
        assert pentagonal_int_series(0) == [1]
        assert pentagonal_int_series(1) == [1, -1]
        assert pentagonal_int_series(2) == [1, -1, -1]

    def test_terms_at_the_generalized_pentagonal_numbers(self):
        """(-1)^j at j(3j - 1)/2 for every integer j, those up to K and no
        others, the series K + 1 long."""
        for K in range(60):
            expected = [0] * (K + 1)
            for j in range(-K - 1, K + 2):
                g = j * (3 * j - 1) // 2
                if g <= K:
                    expected[g] = -1 if j % 2 else 1
            assert pentagonal_int_series(K) == expected

    def test_euler_identity_to_500(self):
        # prod (1 - q^n) computed by sequential binomial multiplication
        N = 500
        prod = [0] * (N + 1)
        prod[0] = 1
        for n in range(1, N + 1):
            for k in range(N, n - 1, -1):
                prod[k] -= prod[k - n]
        assert prod == pentagonal_int_series(N)


class TestPnr:
    def test_examples_d5(self):
        chi = build_char_table(5)
        pnr = p_nr_table(chi, 10)
        assert pnr[0] == 1
        assert pnr[4] == 1  # 2+2
        assert pnr[5] == 1  # 3+2

    def test_brute_force_match(self):
        for D in (5, 13):
            chi = build_char_table(D)
            pnr = p_nr_table(chi, 40)
            allowed = tuple(
                n for n in range(1, 41) if chi[n % D] == -1
            )
            for k in range(41):
                assert pnr[k] == count_partitions_with_parts(k, allowed)


class TestLengthDistribution:
    def test_row_examples(self):
        c = length_distribution(5, 4)
        assert c[0] == [1, 0, 0, 0, 0]
        assert c[3] == [0, 1, 1, 1, 0]

    def test_row_sums_match_p(self):
        N = 300
        c = length_distribution(5, N)
        p = p_table(N)
        for k in range(N + 1):
            assert sum(c[k]) == p[k]

    def test_against_enumeration(self):
        for D in (5, 13):
            c = length_distribution(D, 18)
            for k in range(19):
                counted = Counter(len(lam) % D for lam in enumerate_partitions(k))
                for r in range(D):
                    assert c[k][r] == counted.get(r, 0)

    @pytest.mark.parametrize("D, N", [(1, 40), (2, 40), (5, 120), (13, 90), (21, 60), (101, 130), (7, 0)])
    def test_against_dp_over_part_sizes(self, D, N):
        assert length_distribution(D, N) == length_distribution_by_parts(D, N)

    def test_bad_modulus(self):
        with pytest.raises(ValueError, match="modulus must be positive"):
            length_distribution(0, 3)


class TestDistinctLengthDistribution:
    @pytest.mark.parametrize("D", [1, 5, 21])
    def test_against_enumeration(self, D):
        N = 25
        e = distinct_length_distribution(D, N)
        assert len(e) == N + 1
        for k in range(N + 1):
            signed = [0] * D
            for lam in enumerate_partitions(k):
                if len(set(lam)) == len(lam):
                    signed[len(lam) % D] += (-1) ** len(lam)
            assert e[k] == signed

    def test_row_sums_are_the_pentagonal_series(self):
        # theta = 1: prod(1 - q^n), Euler's pentagonal number theorem
        N = 500
        assert [sum(row) for row in distinct_length_distribution(7, N)] == (
            pentagonal_int_series(N)
        )

    def test_order_zero_and_bad_modulus(self):
        assert distinct_length_distribution(5, 0) == [[1, 0, 0, 0, 0]]
        with pytest.raises(ValueError):
            distinct_length_distribution(0, 3)


@pytest.mark.parametrize(
    "build",
    [
        p_table,
        lambda N: p_nr_table(build_char_table(5), N),
        lambda N: length_distribution(5, N),
        lambda N: distinct_length_distribution(5, N),
    ],
    ids=["p_table", "p_nr_table", "length_distribution", "distinct_length_distribution"],
)
def test_negative_order_refused_alike(build):
    """Every exported partition builder refuses order -1 with one message,
    where an empty table would raise IndexError or a silent [1] come back."""
    with pytest.raises(ValueError, match="order must be >= 0"):
        build(-1)


class TestTables:
    def test_build_partition_tables(self):
        chi = build_char_table(5)
        t = build_partition_tables(chi, 30)
        assert t.p[0] == 1 and t.p_nr[0] == 1 and t.c[0][0] == 1
        assert all(sum(row) == pk for row, pk in zip(t.c, t.p))

    def test_row_that_misses_p_raises(self, monkeypatch):
        """A length distribution whose row k does not sum to p(k) is refused,
        not handed out."""
        distribution = partitions.length_distribution

        def miscounted(D, N):
            c = distribution(D, N)
            c[3][0] += 1
            return c

        monkeypatch.setattr(partitions, "length_distribution", miscounted)
        with pytest.raises(AssertionError, match=r"row 3 does not sum to p\(3\)"):
            build_partition_tables(build_char_table(5), 10)
