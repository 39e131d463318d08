"""Conjecture reports: congruences of the numerator pairs (A, B) of
a_D(n) = (A + B sqrt(D))/2 seen in scans of eta_series and not yet derived,
kept apart from the acceptance gates of test_acceptance.py.  A failure is a
counterexample to a statement or a fault of the kernel.

For odd l, a_D(n) lies in l O_D when l | A and l | B; in 2 O_D when A is
even and A = B mod 4; and in the ramified prime (3, sqrt(21)) above 3 at
D = 21 when 3 | A.
"""

from functools import lru_cache

import pytest

from hecke_eta.qseries import eta_series


@lru_cache(maxsize=None)
def _pairs(D, N):
    """(A, B) of a_D(0..N)."""
    return [(c.num_a, c.num_b) for c in eta_series(D, N).coeffs]


def _progression(D, N, step, start):
    """The pairs at n = step k + start <= N."""
    return _pairs(D, N)[start::step]


class TestConjectureReports:
    @pytest.mark.parametrize("D", [5, 13, 17, 21, 29, 33, 37, 57, 69, 101, 105, 1001])
    def test_odd_index_in_z_sqrt_d(self, D):
        """a_D(2n + 1) lies in Z[sqrt(D)]: A and B are even at every odd n."""
        N = 2000 if D in (5, 13, 21) else 1000
        assert all(A % 2 == 0 and B % 2 == 0 for A, B in _progression(D, N, 2, 1))

    @pytest.mark.parametrize("step, start", [(8, 5), (16, 15)])
    def test_d5_in_twice_o5(self, step, start):
        """a_5(8n + 5) and a_5(16n + 15) lie in 2 O_5."""
        terms = _progression(5, 2000, step, start)
        assert all(A % 2 == 0 and (A - B) % 4 == 0 for A, B in terms)

    def test_d13_divisible_by_three(self):
        """a_13(9n + 5) lies in 3 O_13."""
        assert all(A % 3 == 0 and B % 3 == 0 for A, B in _progression(13, 2000, 9, 5))

    @pytest.mark.parametrize("step", [9, 12])
    def test_d21_in_ramified_prime_above_three(self, step):
        """a_21(9n + 4) and a_21(12n + 4) lie in (3, sqrt(21))."""
        assert all(A % 3 == 0 for A, _ in _progression(21, 2000, step, 4))
