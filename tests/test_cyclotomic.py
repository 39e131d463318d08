import random

import mpmath
import pytest
from oracles import embed_mp, period_polynomials_by_product

from hecke_eta import cyclotomic
from hecke_eta.characters import CharTable, build_char_table, fundamental_discriminants
from hecke_eta.cyclotomic import (
    CycPoly,
    ProjectionError,
    cyc_mul,
    gauss_element,
    period_polynomials,
    project_to_quad,
    trace,
)
from hecke_eta.qseries import _mul_pairs
from hecke_eta.quad_ring import RingElem, RingError


def numeric_value(u: CycPoly, dps=60):
    """Evaluate u at zeta_D = exp(2 pi i / D) in high precision."""
    with mpmath.workdps(dps):
        z = mpmath.e ** (2j * mpmath.pi / u.D)
        return sum(c * z**k for k, c in enumerate(u.coeffs))


def pair_product(f, g):
    """f * g for two RingElem polynomials, through the numerator-pair product."""
    D = f[0].D
    A, B = _mul_pairs(
        [c.num_a for c in f],
        [c.num_b for c in f],
        [c.num_a for c in g],
        [c.num_b for c in g],
        D,
        len(f) + len(g) - 2,
    )
    return [RingElem(a, b, D) for a, b in zip(A, B)]


class TestCycMul:
    def test_wraparound(self):
        D = 7
        x = CycPoly.monomial(D, 1)
        y = CycPoly.monomial(D, D - 1)
        assert cyc_mul(x, y) == CycPoly.one(D)

    def test_identity(self):
        u = CycPoly(5, [3, -2, 0, 7, 1])
        assert cyc_mul(u, CycPoly.one(5)) == u

    def test_telescoping(self):
        D = 5
        one_minus_x = CycPoly(D, [1, -1, 0, 0, 0])
        all_ones = CycPoly(D, [1] * D)
        assert cyc_mul(one_minus_x, all_ones).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cyc_mul(CycPoly.one(5), CycPoly.one(7))


class TestAddShifted:
    @pytest.mark.parametrize("D", [1, 5, 21])
    def test_matches_index_loop(self, D):
        rng = random.Random(D)
        for shift in (0, 1, D - 1, D, -3, 2 * D + 2):
            for scale in (1, -1, 3, 0):
                u = CycPoly(D, [rng.randrange(-(2**70), 2**70) for _ in range(D)])
                v = CycPoly(D, [rng.randrange(-(2**70), 2**70) for _ in range(D)])
                expected = list(u.coeffs)
                for i in range(D):
                    expected[(i + shift) % D] += scale * v.coeffs[i]
                before = u.coeffs
                u.add_shifted(v, shift, scale)
                assert u.coeffs == expected
                assert u.coeffs is before


class TestTrace:
    def test_examples(self):
        assert trace(CycPoly.one(5)) == 4
        assert trace(CycPoly.monomial(5, 1)) == -1
        assert trace(CycPoly.monomial(21, 3)) == -2

    def test_linearity(self):
        rng = random.Random(7)
        for D in (5, 13, 21):
            u = CycPoly(D, [rng.randrange(-9, 10) for _ in range(D)])
            v = CycPoly(D, [rng.randrange(-9, 10) for _ in range(D)])
            assert trace(u + v) == trace(u) + trace(v)

    def test_matches_sum_over_primitive_embeddings(self):
        from math import gcd

        rng = random.Random(11)
        for D in (5, 13, 21):
            u = CycPoly(D, [rng.randrange(-9, 10) for _ in range(D)])
            with mpmath.workdps(60):
                total = mpmath.mpc(0)
                for j in range(1, D):
                    if gcd(j, D) == 1:
                        z = mpmath.e ** (2j * mpmath.pi * j / D)
                        total += sum(c * z**k for k, c in enumerate(u.coeffs))
                assert abs(total - trace(u)) < mpmath.mpf(10) ** -30


class TestGaussElement:
    def test_d5_coefficients(self):
        g = gauss_element(build_char_table(5))
        assert g.coeffs == [0, 1, -1, -1, 1]

    def test_evaluates_to_sqrt_d(self):
        for D in (5, 13, 17, 21):
            g = gauss_element(build_char_table(D))
            with mpmath.workdps(60):
                assert abs(numeric_value(g) - mpmath.sqrt(D)) < mpmath.mpf(10) ** -30

    def test_trace_is_zero(self):
        assert trace(gauss_element(build_char_table(5))) == 0
        assert trace(gauss_element(build_char_table(21))) == 0

    def test_square_projects_to_d(self):
        for D in (5, 13, 17):
            ct = build_char_table(D)
            g = gauss_element(ct)
            assert project_to_quad(cyc_mul(g, g), ct) == RingElem(2 * D, 0, D)


class TestProjection:
    def test_one(self):
        ct = build_char_table(5)
        assert project_to_quad(CycPoly.one(5), ct) == RingElem(2, 0, 5)

    def test_gauss_projects_to_sqrt_d(self):
        for D in (5, 13, 17):
            ct = build_char_table(D)
            g = gauss_element(ct)
            assert project_to_quad(g, ct) == RingElem(0, 2, D)

    def test_golden_ratio_period(self):
        ct = build_char_table(5)
        u = CycPoly(5, [0, 1, 0, 0, 1])  # x + x^4
        assert project_to_quad(u, ct) == RingElem(-1, 1, 5)

    def test_non_member_raises(self):
        ct = build_char_table(5)
        with pytest.raises(ProjectionError):
            project_to_quad(CycPoly.monomial(5, 1), ct)

    def test_projection_matches_numeric_on_random_fixed_elements(self):
        rng = random.Random(23)
        for D in (5, 13, 21):
            ct = build_char_table(D)
            for _ in range(5):
                # symmetrize a random vector over the residue subgroup
                v = [rng.randrange(-5, 6) for _ in range(D)]
                u = CycPoly(D)
                for h in ct.qr_list:
                    for k in range(D):
                        if v[k]:
                            u.coeffs[h * k % D] += v[k]
                x = project_to_quad(u, ct)
                with mpmath.workdps(60):
                    diff = abs(numeric_value(u) - embed_mp(x, 50))
                    assert diff < mpmath.mpf(10) ** -30


class TestPeriodPolynomials:
    def test_d5_golden(self):
        pair = period_polynomials(build_char_table(5))
        assert pair.f_plus == (
            RingElem(2, 0, 5),
            RingElem(1, -1, 5),
            RingElem(2, 0, 5),
        )
        assert pair.f_minus == (
            RingElem(2, 0, 5),
            RingElem(1, 1, 5),
            RingElem(2, 0, 5),
        )

    def test_d13_product_is_all_ones(self):
        pair = period_polynomials(build_char_table(13))
        prod = pair_product(pair.f_plus, pair.f_minus)
        one = RingElem(2, 0, 13)
        assert len(prod) == 13
        assert all(c == one for c in prod)

    def test_invariants_up_to_200(self):
        from hecke_eta.characters import euler_phi

        for D in fundamental_discriminants(200):
            pair = period_polynomials(build_char_table(D))
            phi = euler_phi(D)
            assert len(pair.f_plus) == phi // 2 + 1
            assert pair.f_plus[0].is_one() and pair.f_minus[0].is_one()
            assert tuple(c.conj() for c in pair.f_plus) == pair.f_minus
            prod = pair_product(pair.f_plus, pair.f_minus)
            assert len(prod) == phi + 1
            assert all(c.num_b == 0 for c in prod)

    def test_numeric_roots(self):
        # f_plus vanishes exactly at x = zeta^{-a} for residues a
        pair = period_polynomials(build_char_table(13))
        ct = build_char_table(13)
        with mpmath.workdps(50):
            for a in ct.qr_list[:3]:
                x = mpmath.e ** (-2j * mpmath.pi * a / 13)
                val = sum(
                    embed_mp(c, 40) * x**k for k, c in enumerate(pair.f_plus)
                )
                assert abs(val) < mpmath.mpf(10) ** -25

    def test_matches_model_ring_product_up_to_101(self):
        for D in fundamental_discriminants(101):
            pair = period_polynomials(build_char_table(D))
            assert (pair.f_plus, pair.f_minus) == period_polynomials_by_product(D)

    def test_needs_no_model_ring(self, monkeypatch):
        expected = period_polynomials_by_product(101)

        def forbidden(*args):
            raise AssertionError("period polynomials entered the model ring")

        monkeypatch.setattr(cyclotomic, "project_to_quad", forbidden)
        monkeypatch.setattr(cyclotomic, "cyc_mul", forbidden)
        pair = period_polynomials(build_char_table(101))
        assert (pair.f_plus, pair.f_minus) == expected

    @pytest.mark.parametrize("D", [13, 21, 101])
    def test_flipped_residue_pair_breaks_a_division(self, D):
        ct = build_char_table(D)
        a = ct.qr_list[1]
        values = list(ct.values)
        values[a] = values[D - a] = -1
        bad = CharTable(D, tuple(values), ct.qr_list, ct.nr_list)
        with pytest.raises(RingError, match="inexact division"):
            period_polynomials(bad)

    @pytest.mark.parametrize("D", [13, 21, 101])
    def test_dropped_residue_breaks_the_degree(self, D):
        ct = build_char_table(D)
        bad = CharTable(D, ct.values, ct.qr_list[1:], ct.nr_list)
        with pytest.raises(ProjectionError, match="degree"):
            period_polynomials(bad)


class TestPeriodGuards:
    """Each invariant check of period_polynomials fires on pairs that break it."""

    @staticmethod
    def corrupted(monkeypatch, corrupt):
        """period_polynomials at D = 13 with corrupt(sign, A, B) applied in
        place to the numerator pairs of f_plus (sign 1) and f_minus (-1)."""
        expand = cyclotomic._expand_period

        def patched(ct, sign, h):
            A, B = expand(ct, sign, h)
            corrupt(sign, A, B)
            return A, B

        monkeypatch.setattr(cyclotomic, "_expand_period", patched)
        return period_polynomials(build_char_table(13))

    def test_constant_term(self, monkeypatch):
        def corrupt(sign, A, B):
            A[0] = 4

        with pytest.raises(ProjectionError, match="constant term is not 1"):
            self.corrupted(monkeypatch, corrupt)

    def test_conjugation(self, monkeypatch):
        def corrupt(sign, A, B):
            if sign == -1:
                A[1] += 2

        with pytest.raises(ProjectionError, match="conjugation does not swap"):
            self.corrupted(monkeypatch, corrupt)

    def test_sqrt_d_part_of_the_product(self, monkeypatch):
        """While conjugation swaps f_plus and f_minus their product is its own
        conjugate, so this guard is reached by corrupting the product."""
        mul_pairs = cyclotomic._mul_pairs

        def corrupt_product(*args):
            A, B = mul_pairs(*args)
            B[1] += 2
            return A, B

        monkeypatch.setattr(cyclotomic, "_mul_pairs", corrupt_product)
        with pytest.raises(ProjectionError, match="nonzero sqrt\\(D\\) part"):
            period_polynomials(build_char_table(13))
