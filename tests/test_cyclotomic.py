import random
from fractions import Fraction

import mpmath
import pytest
from oracles import (
    embed_mp,
    fundamental_discriminants,
    period_polynomials_by_product,
    residues,
    trace_weights_by_moebius,
)

from hecke_eta import cyclotomic
from hecke_eta.characters import build_char_table, euler_phi
from hecke_eta.cyclotomic import (
    ProjectionError,
    cyc_mul,
    period_polynomials,
    project_to_quad,
    trace,
)
from hecke_eta.qseries import _mul_pairs
from hecke_eta.quad_ring import RingElem, RingError


def monomial(D: int, k: int) -> list[int]:
    """zeta_D^k as a model-ring list."""
    u = [0] * D
    u[k % D] = 1
    return u


def numeric_value(u: list[int], dps=60):
    """Evaluate u at zeta_D = exp(2 pi i / D), D = len(u), in high precision."""
    with mpmath.workdps(dps):
        z = mpmath.e ** (2j * mpmath.pi / len(u))
        return sum(c * z**k for k, c in enumerate(u))


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
        x = monomial(D, 1)
        y = monomial(D, D - 1)
        assert cyc_mul(x, y) == monomial(D, 0)

    def test_identity(self):
        u = [3, -2, 0, 7, 1]
        assert cyc_mul(u, monomial(5, 0)) == u

    def test_telescoping(self):
        D = 5
        one_minus_x = [1, -1, 0, 0, 0]
        all_ones = [1] * D
        assert not any(cyc_mul(one_minus_x, all_ones))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cyc_mul(monomial(5, 0), monomial(7, 0))

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_length_mismatch_on_either_side(self, n):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cyc_mul([1] * 5, [1] * n)
        with pytest.raises(ValueError, match="dimension mismatch"):
            cyc_mul([1] * n, [1] * 5)


class TestTrace:
    @pytest.mark.parametrize(
        "Ds",
        [fundamental_discriminants(3000), [5005, 85085, 100049]],
        ids=["to_3000", "5005_85085_100049"],
    )
    def test_weights_match_the_moebius_formula(self, Ds):
        """The product of prime rows against mu(d) phi(D)/phi(d), at prime D
        and at D with two, three (5005) and five (85085) primes."""
        for D in Ds:
            assert cyclotomic._trace_weights(D) == trace_weights_by_moebius(D)

    def test_examples(self):
        assert trace(monomial(5, 0)) == 4
        assert trace(monomial(5, 1)) == -1
        assert trace(monomial(21, 3)) == -2

    def test_linearity(self):
        rng = random.Random(7)
        for D in (5, 13, 21):
            u = [rng.randrange(-9, 10) for _ in range(D)]
            v = [rng.randrange(-9, 10) for _ in range(D)]
            assert trace([a + b for a, b in zip(u, v)]) == trace(u) + trace(v)

    def test_matches_sum_over_primitive_embeddings(self):
        from math import gcd

        rng = random.Random(11)
        for D in (5, 13, 21):
            u = [rng.randrange(-9, 10) for _ in range(D)]
            with mpmath.workdps(60):
                total = mpmath.mpc(0)
                for j in range(1, D):
                    if gcd(j, D) == 1:
                        z = mpmath.e ** (2j * mpmath.pi * j / D)
                        total += sum(c * z**k for k, c in enumerate(u))
                assert abs(total - trace(u)) < mpmath.mpf(10) ** -30


class TestGaussElement:
    def test_d5_coefficients(self):
        g = list(build_char_table(5))
        assert g == [0, 1, -1, -1, 1]

    def test_evaluates_to_sqrt_d(self):
        for D in (5, 13, 17, 21):
            g = list(build_char_table(D))
            with mpmath.workdps(60):
                assert abs(numeric_value(g) - mpmath.sqrt(D)) < mpmath.mpf(10) ** -30

    def test_trace_is_zero(self):
        assert trace(list(build_char_table(5))) == 0
        assert trace(list(build_char_table(21))) == 0

    def test_square_projects_to_d(self):
        for D in (5, 13, 17):
            chi = build_char_table(D)
            g = list(chi)
            assert project_to_quad(cyc_mul(g, g), chi) == RingElem(2 * D, 0, D)


class TestProjection:
    def test_one(self):
        chi = build_char_table(5)
        assert project_to_quad(monomial(5, 0), chi) == RingElem(2, 0, 5)

    def test_gauss_projects_to_sqrt_d(self):
        for D in (5, 13, 17):
            chi = build_char_table(D)
            g = list(chi)
            assert project_to_quad(g, chi) == RingElem(0, 2, D)

    def test_golden_ratio_period(self):
        chi = build_char_table(5)
        u = [0, 1, 0, 0, 1]  # x + x^4
        assert project_to_quad(u, chi) == RingElem(-1, 1, 5)

    def test_non_member_raises(self):
        chi = build_char_table(5)
        with pytest.raises(ProjectionError):
            project_to_quad(monomial(5, 1), chi)

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_length_mismatch(self, n):
        """A list whose length is not D is refused, not read as its first D
        entries (which would project 2 to the pair (4, 0) here)."""
        with pytest.raises(ValueError, match="dimension mismatch"):
            project_to_quad([2] + [0] * (n - 1), build_char_table(5))

    @pytest.mark.parametrize("D", [5, 13, 101, 21, 105])
    def test_matches_trace_of_gauss_product(self, D):
        """The O(D) character sum against the product formula it replaced,
        trace(u g) / (D phi(D)), on random fixed and unfixed u: the same
        pair where it is exact, and ProjectionError where it is not."""
        chi = build_char_table(D)
        g = list(chi)
        phi = euler_phi(D)
        rng = random.Random(D)
        raised = 0
        for trial in range(12):
            v = [rng.randrange(-(2**40), 2**40) for _ in range(D)]
            u = [0] * D
            for h in residues(chi, 1) if trial % 2 else (1,):
                for k in range(D):
                    u[h * k % D] += v[k]
            a2 = Fraction(2 * trace(u), phi)
            b2 = Fraction(2 * trace(cyc_mul(u, g)), D * phi)
            if a2.denominator == b2.denominator == 1 and (a2 - b2) % 2 == 0:
                assert project_to_quad(u, chi) == RingElem(int(a2), int(b2), D)
            else:
                raised += 1
                with pytest.raises(ProjectionError):
                    project_to_quad(u, chi)
        assert raised > 0

    def test_projection_matches_numeric_on_random_fixed_elements(self):
        rng = random.Random(23)
        for D in (5, 13, 21):
            chi = build_char_table(D)
            for _ in range(5):
                # symmetrize a random vector over the residue subgroup
                v = [rng.randrange(-5, 6) for _ in range(D)]
                u = [0] * D
                for h in residues(chi, 1):
                    for k in range(D):
                        if v[k]:
                            u[h * k % D] += v[k]
                x = project_to_quad(u, chi)
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
            one = RingElem(2, 0, D)
            assert pair.f_plus[0] == one and pair.f_minus[0] == one
            assert tuple(c.conj() for c in pair.f_plus) == pair.f_minus
            prod = pair_product(pair.f_plus, pair.f_minus)
            assert len(prod) == phi + 1
            assert all(c.num_b == 0 for c in prod)

    def test_numeric_roots(self):
        # f_plus vanishes exactly at x = zeta^{-a} for residues a
        pair = period_polynomials(build_char_table(13))
        chi = build_char_table(13)
        with mpmath.workdps(50):
            for a in residues(chi, 1)[:3]:
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
        chi = build_char_table(D)
        a = residues(chi, 1)[1]
        values = list(chi)
        values[a] = values[D - a] = -1
        with pytest.raises(RingError, match="inexact division"):
            period_polynomials(tuple(values))

    @pytest.mark.parametrize("D", [13, 21, 101])
    def test_dropped_residue_breaks_the_degree(self, D):
        chi = build_char_table(D)
        with pytest.raises(ProjectionError, match="degree"):
            cyclotomic._expand_period(chi, euler_phi(D) // 2 - 1)

    def test_one_expansion(self, monkeypatch):
        """f_minus is the conjugate of f_plus, not a second expansion."""
        calls = []
        expand = cyclotomic.euler_transform

        def counted(*args):
            calls.append(args[2:])
            return expand(*args)

        monkeypatch.setattr(cyclotomic, "euler_transform", counted)
        pair = period_polynomials(build_char_table(101))
        assert calls == [(101, 51)]
        assert pair.f_minus == tuple(c.conj() for c in pair.f_plus)


class TestPeriodGuards:
    """Each invariant check of period_polynomials fires on pairs that break it."""

    @staticmethod
    def corrupted(monkeypatch, corrupt):
        """period_polynomials at D = 13 with corrupt(A, B) applied in place
        to the numerator pairs of f_plus."""
        expand = cyclotomic._expand_period

        def patched(chi, h):
            A, B = expand(chi, h)
            corrupt(A, B)
            return A, B

        monkeypatch.setattr(cyclotomic, "_expand_period", patched)
        return period_polynomials(build_char_table(13))

    def test_constant_term(self, monkeypatch):
        def corrupt(A, B):
            A[0] = 4

        with pytest.raises(ProjectionError, match="constant term is not 1"):
            self.corrupted(monkeypatch, corrupt)

    def test_product_is_phi_d(self, monkeypatch):
        """A corruption of the trace weights that keeps every division exact,
        the degree and conjugation: at D = 21, subtracting twice the power
        sums c_7(m) of the primitive 7th roots (6 where 7 | m, else -1)
        divides both period polynomials by Phi_7, and only the comparison of
        their product with Phi_21 sees it."""
        weights = cyclotomic._trace_weights(21)
        bad = tuple(w - 2 * (6 if m % 7 == 0 else -1) for m, w in enumerate(weights))
        monkeypatch.setattr(cyclotomic, "_trace_weights", lambda D: bad)
        with pytest.raises(ProjectionError, match="not the cyclotomic polynomial"):
            period_polynomials(build_char_table(21))

    def test_cyclotomic_coefficients(self):
        """Phi_21 = x^12 - x^11 + x^9 - x^8 + x^6 - x^4 + x^3 - x + 1, and
        Phi_105, the first with a coefficient outside {-1, 0, 1}, has -2 at
        x^7 and x^41."""
        assert cyclotomic._cyclotomic_coeffs(21) == [1, -1, 0, 1, -1, 0, 1, 0, -1, 1, 0, -1, 1]
        phi_105 = cyclotomic._cyclotomic_coeffs(105)
        assert len(phi_105) == 49
        assert [k for k, c in enumerate(phi_105) if abs(c) > 1] == [7, 41]
        assert phi_105[7] == phi_105[41] == -2


class TestNormIdentity:
    """The norm guard compares pa^2 - D pb^2 with the packed 4 Phi_D as one
    integer, pa and pb being A and B packed at one slot width: a change of
    one coefficient, or of which sequence is A, must move it off the target."""

    @staticmethod
    def corrupted(monkeypatch, D, corrupt):
        """period_polynomials at D with corrupt(A, B, h) applied in place to
        the numerator pairs of f_plus."""
        expand = cyclotomic._expand_period

        def patched(chi, h):
            A, B = expand(chi, h)
            corrupt(A, B, h)
            return A, B

        monkeypatch.setattr(cyclotomic, "_expand_period", patched)
        return period_polynomials(build_char_table(D))

    @pytest.mark.parametrize("D", [13, 21, 105])
    @pytest.mark.parametrize("step", [1, -1])
    @pytest.mark.parametrize("at", ["B[h]", "A[h//2]"])
    def test_one_coefficient_off_by_one(self, monkeypatch, D, at, step):
        def corrupt(A, B, h):
            seq, k = (B, h) if at == "B[h]" else (A, h // 2)
            seq[k] += step

        with pytest.raises(ProjectionError, match="not the cyclotomic polynomial"):
            self.corrupted(monkeypatch, D, corrupt)

    @pytest.mark.parametrize("D", [13, 21, 105])
    def test_a_and_b_swapped(self, monkeypatch, D):
        """Swapped past the constant term, which the constant-term guard
        would refuse first."""

        def corrupt(A, B, h):
            A[1:], B[1:] = B[1:], A[1:]

        with pytest.raises(ProjectionError, match="not the cyclotomic polynomial"):
            self.corrupted(monkeypatch, D, corrupt)

    @pytest.mark.parametrize("D", [5, 21, 105, 1365])
    def test_width_bounds_both_sides(self, monkeypatch, D):
        """The one slot width of the check keeps every coefficient of
        A*A - D B*B (by a double loop) and of 4 Phi_D below half the base,
        where equal packed integers mean equal coefficients; so it does for
        any A, B of the same length and largest magnitude M, whose
        coefficients are at most len(A) M^2 (1 + D)."""
        widths = []
        pack = cyclotomic._pack

        def spy(seq, wb):
            widths.append(wb)
            return pack(seq, wb)

        monkeypatch.setattr(cyclotomic, "_pack", spy)
        pair = period_polynomials(build_char_table(D))
        A = [c.num_a for c in pair.f_plus]
        B = [c.num_b for c in pair.f_plus]
        norm = [0] * (2 * len(A) - 1)
        for i in range(len(A)):
            for j in range(len(A)):
                norm[i + j] += A[i] * A[j] - D * B[i] * B[j]
        target = [4 * c for c in cyclotomic._cyclotomic_coeffs(D)]
        assert norm == target
        assert len(widths) == 3 and len(set(widths)) == 1
        half_base = 2 ** (8 * widths[0] - 1)
        assert max(map(abs, norm + target)) < half_base
        M = max(map(abs, A + B))
        assert len(A) * M * M * (1 + D) < half_base
