import math

import pytest
from hypothesis import given, strategies as st
from oracles import embed_mp

from hecke_eta.quad_ring import (
    RingElem,
    RingError,
    canonical_str,
    embed_real,
)
from hecke_eta.qseries import _mul_pairs, eta_series


def elem(a, b, D=5):
    return RingElem(a, b, D)


def pair_times(x, u):
    """x * u by the numerator-pair formula: ((a + b sqrt(D))/2)((c + d sqrt(D))/2)
    has numerators ((ac + Dbd)/2, (ad + bc)/2), both exact when a = b and
    c = d (mod 2)."""
    D = x.D
    return RingElem(
        (x.num_a * u.num_a + D * x.num_b * u.num_b) // 2,
        (x.num_a * u.num_b + x.num_b * u.num_a) // 2,
        D,
    )


def times(x, y):
    """x * y through the library's numerator-pair product, qseries._mul_pairs."""
    (a,), (b,) = _mul_pairs([x.num_a], [x.num_b], [y.num_a], [y.num_b], x.D, 0)
    return RingElem(a, b, x.D)


def o_d_elements(D=5):
    """Valid O_D elements via the s + t*(1+sqrt(D))/2 parametrization."""
    ints = st.integers(min_value=-10**6, max_value=10**6)
    return st.builds(lambda s, t: RingElem(2 * s + t, t, D), ints, ints)


# Numerator pair of a unit of O_D whose real embedding is below 1 in size.
SMALL_UNITS = {5: (1, -1), 13: (3, -1), 21: (5, -1), 101: (20, -2)}


@st.composite
def cancelling_elements(draw):
    """y * e^k for random y and a small unit e: a and b*sqrt(D) agree in
    about k digits, so the embedding cancels them."""
    D = draw(st.sampled_from(sorted(SMALL_UNITS)))
    ints = st.integers(min_value=-(10**20), max_value=10**20)
    s, t = draw(ints), draw(ints)
    x = RingElem(2 * s + t, t, D)
    e = RingElem(*SMALL_UNITS[D], D)
    for _ in range(draw(st.integers(min_value=0, max_value=150))):
        x = pair_times(x, e)
    return x


def correctly_rounded(x):
    return float(embed_mp(x, 60))


class TestExamples:
    def test_square_of_minus_one_minus_sqrt5(self):
        x = elem(-2, -2)  # -1 - sqrt5
        assert times(x, x) == elem(12, 4)  # 6 + 2 sqrt5

    def test_conj_examples(self):
        assert elem(7, 1).conj() == elem(7, -1)
        three = elem(6, 0)
        assert three.conj() == three
        x = elem(5, -3)
        assert x.conj().conj() == x

    def test_embed_examples(self):
        a_5_3 = eta_series(5, 3).coeffs[3]
        assert a_5_3 == elem(0, -4)  # -2 sqrt5, with a = 0
        for x in (elem(-2, -2), elem(7, 1), elem(7, -1), elem(-7, 1), a_5_3, elem(-6, 0)):
            assert embed_real(x) == correctly_rounded(x)
        assert embed_real(elem(0, 0)) == 0
        assert embed_real(elem(-6, 0)) == -3.0

    def test_embed_of_units_that_cancel_worst(self):
        """((1 - sqrt5)/2)^k has norm +-1, so a and b sqrt5 agree to ~k/2 digits."""
        x = elem(2, 0)
        for _ in range(300):
            a, b = x.num_a, x.num_b
            x = elem((a - 5 * b) // 2, (b - a) // 2)  # x * (1 - sqrt5)/2
            assert abs(x.num_a**2 - 5 * x.num_b**2) == 4
            assert embed_real(x) == correctly_rounded(x)
        assert 0 < abs(embed_real(x)) < 1e-60

    def test_embed_past_the_float_range(self):
        big = 2**1100
        assert embed_real(elem(big, big)) == math.inf
        assert embed_real(elem(-big, 0)) == -math.inf


class TestInvariants:
    def test_parity_rejected_at_construction(self):
        with pytest.raises(RingError):
            RingElem(1, 0, 5)

    def test_invalid_discriminants_rejected(self):
        for D in (4, 3, 0, -5, 7):
            with pytest.raises(RingError):
                RingElem(2, 0, D)

    @given(o_d_elements(), o_d_elements())
    def test_parity_preserved_by_ops(self, x, y):
        for z in (times(x, y), x.conj()):
            assert (z.num_a - z.num_b) % 2 == 0

    @given(o_d_elements(), o_d_elements())
    def test_conj_is_ring_automorphism(self, x, y):
        assert times(x, y).conj() == times(x.conj(), y.conj())

    @given(o_d_elements())
    def test_norm_is_rational_integer(self, x):
        prod = times(x, x.conj())
        assert prod.num_b == 0
        assert 2 * prod.num_a == x.num_a**2 - 5 * x.num_b**2

    @given(o_d_elements())
    def test_embed_is_correctly_rounded(self, x):
        assert embed_real(x) == correctly_rounded(x)

    @given(cancelling_elements())
    def test_embed_is_correctly_rounded_under_cancellation(self, x):
        assert embed_real(x) == correctly_rounded(x)
        assert embed_real(x.conj()) == correctly_rounded(x.conj())


class TestRepresentation:
    def test_canonical_text(self):
        assert canonical_str(elem(7, 1)) == "(7+1*sqrt(5))/2"
        assert canonical_str(elem(-2, -2)) == "(-2-2*sqrt(5))/2"
        assert canonical_str(elem(0, -4)) == "(0-4*sqrt(5))/2"

    def test_json_dict(self):
        assert elem(7, 1).to_json_dict() == {"a": 7, "b": 1, "den": 2}
