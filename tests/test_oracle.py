import random

import pytest
from oracles import mul_dense_plain

from hecke_eta import oracle, qseries
from hecke_eta.characters import build_char_table
from hecke_eta.cyclotomic import CycPoly, ProjectionError, project_to_quad
from hecke_eta.golden import golden_coefficients
from hecke_eta.oracle import CycSeries, a_via_convolution, compare_with_eta
from hecke_eta.quad_ring import RingElem


class TestConvolutionOracle:
    def test_order_zero(self):
        assert a_via_convolution(5, 0) == [RingElem(2, 0, 5)]
        assert a_via_convolution(13, 0) == [RingElem(2, 0, 13)]

    def test_table_entries(self):
        conv = a_via_convolution(5, 1)
        assert conv[1] == RingElem(-2, -2, 5)
        conv13 = a_via_convolution(13, 3)
        assert conv13[3] == RingElem(-4, -8, 13)

    def test_matches_eta_series_d5(self):
        matches, mismatches = compare_with_eta(5, 40)
        assert mismatches == []
        assert matches == 41

    def test_matches_eta_series_d13(self):
        matches, mismatches = compare_with_eta(13, 25)
        assert mismatches == []

    def test_matches_eta_series_d17(self):
        matches, mismatches = compare_with_eta(17, 12)
        assert mismatches == []

    def test_matches_eta_series_composite_d21(self):
        # gcd-based chi = 0 factor keeps composite squarefree D exact
        matches, mismatches = compare_with_eta(21, 15)
        assert mismatches == []

    def test_every_assembled_coefficient_projects(self):
        # projection raising nowhere is the executable fixed-field claim
        out = a_via_convolution(17, 10)
        assert len(out) == 11
        for c in out:
            assert (c.num_a - c.num_b) % 2 == 0


class TestGaloisGuard:
    def test_unfixed_element_is_rejected(self):
        ct = build_char_table(5)
        with pytest.raises(ProjectionError):
            project_to_quad(CycPoly.monomial(5, 2), ct)

    def test_series_coefficients_are_orbit_constant_for_prime_d(self):
        # direct check that intermediate oracle coefficients are fixed by
        # the residue subgroup: coefficients constant on {0}, qr, nr orbits
        D = 13
        ct = build_char_table(D)
        from hecke_eta.oracle import (
            _chi_zero_series,
            _int_convolve,
        )
        from hecke_eta.partitions import length_distribution, p_nr_table, pentagonal_int_series

        N = 8
        pnr = p_nr_table(ct, N)
        base = _int_convolve(pnr, pnr, N)
        base = _int_convolve(base, _chi_zero_series(D, N), N)
        base = _int_convolve(base, pentagonal_int_series(N), N)
        series = CycSeries.from_int_series(D, base)
        for a in ct.qr_list:
            for n in range(1, N + 1):
                series.mul_binomial_inplace(a, n)
        c = length_distribution(D, N)
        for b in ct.nr_list:
            coeffs = []
            for k in range(N + 1):
                poly = CycPoly(D)
                for r in range(D):
                    if c[k][r]:
                        poly.coeffs[b * r % D] += c[k][r]
                coeffs.append(poly)
            series = series.mul_dense(CycSeries(D, coeffs))
        for u in series.coeffs:
            qr_vals = {u.coeffs[a % D] for a in ct.qr_list}
            nr_vals = {u.coeffs[b % D] for b in ct.nr_list}
            assert len(qr_vals) == 1 and len(nr_vals) == 1


def _random_series(rng, D, prec, bits, zero_rows=0.2):
    """Signed coefficients below 2^bits, about a zero_rows share of rows zero."""
    rows = []
    for _ in range(prec + 1):
        if rng.random() < zero_rows:
            rows.append(CycPoly(D))
        else:
            rows.append(CycPoly(D, [rng.randrange(-(2**bits) + 1, 2**bits) for _ in range(D)]))
    return CycSeries(D, rows)


def _constant_series(D, prec, value):
    return CycSeries(D, [CycPoly(D, [value] * D) for _ in range(prec + 1)])


class TestPackedProduct:
    """CycSeries.mul_dense (one Kronecker product) against the double loop of
    cyclic convolutions in tests/oracles.py."""

    @pytest.mark.parametrize(
        "D, prec",
        [(5, 0), (5, 1), (5, 40), (13, 1), (13, 38), (21, 0), (21, 1), (21, 12),
         (33, 1), (33, 6), (41, 0), (41, 1), (41, 4)],
    )
    def test_random_signed_series(self, D, prec):
        rng = random.Random(1000 * D + prec)
        for bits in (1, 64, 300):
            f = _random_series(rng, D, prec, bits)
            g = _random_series(rng, D, prec, rng.choice((1, 20, 300)))
            assert f.mul_dense(g).coeffs == mul_dense_plain(f, g).coeffs

    @pytest.mark.parametrize("D, prec", [(5, 0), (5, 12), (13, 4), (21, 1), (33, 2)])
    @pytest.mark.parametrize("bits", range(296, 304))
    def test_extreme_slots(self, D, prec, bits):
        """Every coefficient at -(2^bits - 1) on one side and both signs on
        the other, so the last row's middle slot reaches the width bound
        (prec + 1) D max|u| max|v| in magnitude; eight consecutive widths
        cover every rounding of the bound to whole bytes."""
        M = 2**bits - 1
        f = _constant_series(D, prec, -M)
        for g in (_constant_series(D, prec, -M), _constant_series(D, prec, M)):
            assert f.mul_dense(g).coeffs == mul_dense_plain(f, g).coeffs

    def test_zero_operands(self):
        rng = random.Random(7)
        f = _random_series(rng, 13, 9, 300)
        zero = _constant_series(13, 9, 0)
        assert f.mul_dense(zero).coeffs == zero.coeffs
        assert zero.mul_dense(f).coeffs == zero.coeffs


class TestIndependence:
    """The oracle shares only the generic packing helpers with the route it
    checks: with the kernel's entry points disabled it still reproduces the
    golden coefficients."""

    @pytest.mark.parametrize("D", [5, 13, 17])
    def test_golden_without_the_kernel(self, monkeypatch, D):
        def forbidden(*args, **kwargs):
            raise AssertionError("the convolution oracle reached the exact kernel")

        for name in ("euler_transform", "eta_series", "_pair_product"):
            assert not hasattr(oracle, name)
            monkeypatch.setattr(qseries, name, forbidden)
        expected = {N: value for D2, N, value in golden_coefficients() if D2 == D}
        conv = a_via_convolution(D, max(expected))
        assert {N: conv[N] for N in expected} == expected
