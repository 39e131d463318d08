import math

import pytest
from hypothesis import given, strategies as st
from oracles import embed_mp

from hecke_eta.quad_ring import (
    RingCtx,
    RingElem,
    RingError,
    canonical_str,
    embed_real,
    ring_ctx,
)
from hecke_eta.qseries import eta_series


CTX5 = ring_ctx(5)


def elem(a, b, ctx=CTX5):
    return RingElem(a, b, ctx)


def o_d_elements(D=5):
    """Valid O_D elements via the s + t*(1+sqrt(D))/2 parametrization."""
    ctx = ring_ctx(D)
    ints = st.integers(min_value=-10**6, max_value=10**6)
    return st.builds(lambda s, t: RingElem(2 * s + t, t, ctx), ints, ints)


# Numerator pair of a unit of O_D whose real embedding is below 1 in size.
SMALL_UNITS = {5: (1, -1), 13: (3, -1), 21: (5, -1), 101: (20, -2)}


@st.composite
def cancelling_elements(draw):
    """y * e^k for random y and a small unit e: a and b*sqrt(D) agree in
    about k digits, so the embedding cancels them."""
    ctx = ring_ctx(draw(st.sampled_from(sorted(SMALL_UNITS))))
    ints = st.integers(min_value=-(10**20), max_value=10**20)
    s, t = draw(ints), draw(ints)
    x = RingElem(2 * s + t, t, ctx)
    e = RingElem(*SMALL_UNITS[ctx.D], ctx)
    for _ in range(draw(st.integers(min_value=0, max_value=150))):
        x = x * e
    return x


def correctly_rounded(x):
    return float(embed_mp(x, 60))


class TestExamples:
    def test_square_of_minus_one_minus_sqrt5(self):
        x = elem(-2, -2)  # -1 - sqrt5
        assert x * x == elem(12, 4)  # 6 + 2 sqrt5

    def test_additive_inverse(self):
        x = elem(7, 1)
        assert (x + (-x)).is_zero()

    def test_scalar_doubling(self):
        assert elem(7, 1) * 2 == elem(14, 2)

    def test_conj_examples(self):
        assert elem(7, 1).conj() == elem(7, -1)
        three = RingElem.from_int(3, CTX5)
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
        u = elem(1, -1)
        x = elem(2, 0)
        for _ in range(300):
            x = x * u
            assert abs(x.norm()) == 1
            assert embed_real(x) == correctly_rounded(x)
        assert 0 < abs(embed_real(x)) < 1e-60

    def test_embed_past_the_float_range(self):
        big = 2**1100
        assert embed_real(elem(big, big)) == math.inf
        assert embed_real(elem(-big, 0)) == -math.inf


class TestInvariants:
    def test_parity_rejected_at_construction(self):
        with pytest.raises(RingError):
            RingElem(1, 0, CTX5)

    def test_context_mismatch_is_hard_error(self):
        x = elem(2, 0)
        y = RingElem(2, 0, ring_ctx(13))
        with pytest.raises(RingError):
            x + y
        with pytest.raises(RingError):
            x * y

    def test_invalid_discriminants_rejected(self):
        for D in (4, 3, 0, -5, 7):
            with pytest.raises(RingError):
                RingCtx(D)

    @given(o_d_elements(), o_d_elements())
    def test_parity_preserved_by_ops(self, x, y):
        for z in (x + y, x * y, -x, x.conj(), x - y):
            assert (z.num_a - z.num_b) % 2 == 0

    @given(o_d_elements(), o_d_elements())
    def test_conj_is_ring_automorphism(self, x, y):
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()

    @given(o_d_elements())
    def test_norm_is_rational_integer(self, x):
        prod = x * x.conj()
        assert prod.num_b == 0
        assert x.norm() * 2 == prod.num_a

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

    def test_int_comparison(self):
        assert RingElem.from_int(3, CTX5) == 3
        assert elem(7, 1) != 3
