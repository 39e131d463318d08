"""Conjecture reports: congruences of the numerator pairs (A, B) of
a_D(n) = (A + B sqrt(D))/2 seen in scans of eta_series and not yet derived,
kept apart from the acceptance gates of test_acceptance.py.  A failure is a
counterexample to a statement or a fault of the kernel.

For odd l, a_D(n) lies in l O_D when l | A and l | B; in 2 O_D when A is
even and A = B mod 4; in Z[sqrt(D)] when A and B are even; and in the
ramified prime (3, sqrt(21)) above 3 at D = 21 when 3 | A.

The Hauptmodul identities (ROADMAP item 20) check every coefficient of the
kernel to order N at D = 5 and 13 against integer Euler products, exactly.
"""

from functools import lru_cache

import pytest
from oracles import fundamental_discriminants

from hecke_eta.partitions import _euler_product
from hecke_eta.qseries import _eta_power, _mul_pairs, eta_series


@lru_cache(maxsize=None)
def _pairs(D, N):
    """(A, B) of a_D(0..N)."""
    return [(c.num_a, c.num_b) for c in eta_series(D, N).coeffs]


def _progression(D, N, step, start):
    """The pairs at n = step k + start <= N."""
    return _pairs(D, N)[start::step]


def _in_twice_o_d(A, B):
    """(A + B sqrt(D))/2 lies in 2 O_D."""
    return A % 2 == 0 and (A - B) % 4 == 0


def _in_z_sqrt_d(A, B):
    """(A + B sqrt(D))/2 lies in Z[sqrt(D)]."""
    return A % 2 == 0 and B % 2 == 0


# D: (p, w, c, e2, e3) of the identity at D, the units as numerator pairs.
# At D = 13, eps = (3 + sqrt(13))/2, e2 = eps^2 and e3 = 2 eps^3; at D = 5,
# phi = (1 + sqrt(5))/2, e2 = phi^10 and e3 = 2 phi^15.
HAUPTMODUL = {13: (13, 2, 13, (11, 3), (72, 20)), 5: (5, 6, 125, (123, 55), (2728, 1220))}
HAUPTMODUL_N = 1000


@lru_cache(maxsize=None)
def _hauptmodul_x(D):
    """X as numerator pairs to order HAUPTMODUL_N: eta_13 / q at D = 13 and
    eta_5^5 / q at D = 5."""
    if D == 13:
        return tuple(map(list, zip(*_pairs(13, 2000)[: HAUPTMODUL_N + 1])))
    coeffs = _eta_power(5, HAUPTMODUL_N, 5).coeffs
    return [c.num_a for c in coeffs], [c.num_b for c in coeffs]


def _hauptmodul_violation(D, X):
    """The first n <= N at which

        e2 X P^2 + c e2 q^2 X + e3 q X P - q^2 X^2 P = e2 P,

    P = prod (1 - q^n)^w / (1 - q^(pn))^w, fails, or None.  It is
    eta + e2/eta = e2 (t + c/t) + e3 with eta = q X and t = P/q, multiplied
    by eta t and by q, so that no series is divided.  Every product is one
    _mul_pairs on numerator pairs."""
    p, w, c, e2, e3 = HAUPTMODUL[D]
    N = len(X[0]) - 1
    factors = [(n, 1) for n in range(1, N + 1)] + [(p * n, -1) for n in range(1, N // p + 1)]
    P = [2 * x for x in _euler_product(factors * w, N)], [0] * (N + 1)

    def mul(x, y):
        return _mul_pairs(*x, *y, D, N)

    def shift(x, k):
        return [[0] * k + s[: N + 1 - k] for s in x]

    XP = mul(X, P)
    terms = [
        mul(mul(XP, P), ([e2[0]], [e2[1]])),
        shift(mul(X, ([c * e2[0]], [c * e2[1]])), 2),
        shift(mul(XP, ([e3[0]], [e3[1]])), 1),
        [[-x for x in s] for s in shift(mul(XP, X), 2)],
    ]
    lhs = [[sum(col) for col in zip(*(t[i] for t in terms))] for i in (0, 1)]
    rhs = mul(P, ([e2[0]], [e2[1]]))
    return next((n for n in range(N + 1) if (lhs[0][n], lhs[1][n]) != (rhs[0][n], rhs[1][n])), None)


def _mutated(X, name):
    """X with one fault and the index n it first shows at: one unit added at
    0.8 N, the series shifted by one order (m off by one), or A and B swapped
    at the first n past N/2 where they differ."""
    A, B = list(X[0]), list(X[1])
    N = len(A) - 1
    if name == "unit":
        n = 4 * N // 5
        A[n] += 2
        return (A, B), n
    if name == "shift":
        return ([0] + A[:N], [0] + B[:N]), 0
    n = next(n for n in range(N // 2, N + 1) if A[n] != B[n])
    A[n], B[n] = B[n], A[n]
    return (A, B), n


class TestConjectureReports:
    @pytest.mark.parametrize("D", [5, 13, 17, 21, 29, 33, 37, 57, 69, 101, 105, 1001])
    def test_odd_index_in_z_sqrt_d(self, D):
        """a_D(2n + 1) lies in Z[sqrt(D)]: A and B are even at every odd n."""
        N = 2000 if D in (5, 13, 21) else 1000
        assert all(A % 2 == 0 and B % 2 == 0 for A, B in _progression(D, N, 2, 1))

    @pytest.mark.parametrize("D", fundamental_discriminants(199))
    def test_odd_index_in_twice_o_d(self, D):
        """a_D(2n + 1) lies in 2 O_D: A is even and A = B mod 4 at every odd
        n.  This implies test_odd_index_in_z_sqrt_d, test_d5_in_twice_o5 and
        a_13(6n + 3), a_13(8n + 3), a_13(8n + 5) in 2 O_13."""
        N = 4000 if D == 5 else 600
        assert all(_in_twice_o_d(A, B) for A, B in _progression(D, N, 2, 1))

    def test_even_index_mostly_outside_twice_o5(self):
        """The statement above is not true of every index: 676 of a_5(2..2000)
        at even n lie outside 2 O_5, so a kernel whose coefficients were all
        in 2 O_5 (twice every true one, say) fails here."""
        outside = [not _in_twice_o_d(A, B) for A, B in _progression(5, 2000, 2, 2)]
        assert (sum(outside), len(outside)) == (676, 1000)

    @pytest.mark.parametrize("step, start", [(8, 5), (16, 15)])
    def test_d5_in_twice_o5(self, step, start):
        """a_5(8n + 5) and a_5(16n + 15) lie in 2 O_5."""
        terms = _progression(5, 2000, step, start)
        assert all(_in_twice_o_d(A, B) for A, B in terms)

    def test_d13_divisible_by_three(self):
        """a_13(9n + 5) lies in 3 O_13."""
        assert all(A % 3 == 0 and B % 3 == 0 for A, B in _progression(13, 2000, 9, 5))

    @pytest.mark.parametrize("step", [9, 12])
    def test_d21_in_ramified_prime_above_three(self, step):
        """a_21(9n + 4) and a_21(12n + 4) lie in (3, sqrt(21))."""
        assert all(A % 3 == 0 for A, _ in _progression(21, 2000, step, 4))

    def test_d13_multiple_of_four_in_z_sqrt13(self):
        """a_13(4n) lies in Z[sqrt(13)]."""
        assert all(_in_z_sqrt_d(A, B) for A, B in _progression(13, 2000, 4, 0))

    @pytest.mark.parametrize("start", [6, 10])
    def test_d17_in_z_sqrt17(self, start):
        """a_17(16n + 6) and a_17(16n + 10) lie in Z[sqrt(17)]."""
        assert all(_in_z_sqrt_d(A, B) for A, B in _progression(17, 2000, 16, start))

    def test_d21_in_z_sqrt21(self):
        """a_21(12n + 6) lies in Z[sqrt(21)]."""
        assert all(_in_z_sqrt_d(A, B) for A, B in _progression(21, 2000, 12, 6))

    def test_d21_in_twice_o21(self):
        """a_21(12n + 11) lies in 2 O_21."""
        assert all(_in_twice_o_d(A, B) for A, B in _progression(21, 2000, 12, 11))


class TestHauptmodulIdentity:
    @pytest.mark.parametrize("D", [13, 5])
    def test_identity_holds(self, D):
        """eta_13 at D = 13, and eta_5^5 at D = 5, satisfy the quadratic
        identity with their Hauptmodul exactly to order HAUPTMODUL_N."""
        assert _hauptmodul_violation(D, _hauptmodul_x(D)) is None

    @pytest.mark.parametrize("name", ["unit", "shift", "swap"])
    @pytest.mark.parametrize("D", [13, 5])
    def test_mutation_is_caught_where_made(self, D, name):
        X, n = _mutated(_hauptmodul_x(D), name)
        assert _hauptmodul_violation(D, X) == n
