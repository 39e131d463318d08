"""Conjecture reports: congruences of the numerator pairs (A, B) of
a_D(n) = (A + B sqrt(D))/2 seen in scans of eta_series and not yet derived,
kept apart from the acceptance gates of test_acceptance.py.  A failure is a
counterexample to a statement or a fault of the kernel.

For odd l, a_D(n) lies in l O_D when l | A and l | B; in 2 O_D when A is
even and A = B mod 4; in Z[sqrt(D)] when A and B are even; and in the
ramified prime (3, sqrt(21)) above 3 at D = 21 when 3 | A.

The Hauptmodul identities (ROADMAP item 20) check every coefficient of the
kernel to order N at D = 5 and 13 against integer Euler products, exactly.

eta_D has a law on all of Gamma_0(D) (ROADMAP item 19), also at the gamma
with d mod D not +-1, which no word of H(sqrt(D)) reaches: modulo 2 pi i,
log eta(gamma tau) = log eta(tau) where chi(d) = 1, and log eta(gamma tau) =
2 L'(0, chi) - log eta(tau) where chi(d) = -1, so eta(gamma tau) eta(tau) =
eps_D^(2h).  D = 5, whose second half carries a fifth root of unity, is left
out.

README keeps a ledger of the claims about a_D, each with its status and the
test node id that backs it; TestLedger checks that every id it names is a
test that exists.
"""

import ast
import math
import re
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest
from oracles import fundamental_discriminants

from hecke_eta.analytic import log_eta_tail
from hecke_eta.characters import build_char_table
from hecke_eta.lseries import l_prime_zero_fixed, m_exponent
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


GAMMA0_DS = [13, 17, 21, 29, 37, 101]
GAMMA0_NMAX = 20000
GAMMA0_TOL = 1e-9


def _gamma0_elements(D):
    """Every (a, b, c, d) in Gamma_0(D) with c in {D, 2D}, 1 < d < c and
    d mod D not +-1, with a = d^-1 mod c."""
    for c in (D, 2 * D):
        for d in range(2, c):
            if gcd(d, c) == 1 and d % D not in (1, D - 1):
                a = pow(d, -1, c)
                yield a, (a * d - 1) // c, c, d


@lru_cache(maxsize=None)
def _gamma0_logs(D):
    """(chi(d), log eta(gamma tau), log eta(tau)) for each gamma of
    _gamma0_elements(D) and tau = (-d + s + i)/c, s in {0, 0.3, -0.2}, so
    that c tau + d = s + i: log eta = 2 pi i m z / sqrt(D) +
    log_eta_tail(D, z, GAMMA0_NMAX) at z = sqrt(D) tau."""
    chi = build_char_table(D)
    num, den = m_exponent(chi)

    def log_eta(tau):
        z = math.sqrt(D) * tau
        return 2j * math.pi * num / den * z / math.sqrt(D) + log_eta_tail(D, z, GAMMA0_NMAX)

    logs = []
    for a, b, c, d in _gamma0_elements(D):
        for s in (0, 0.3, -0.2):
            tau = complex(s - d, 1) / c
            logs.append((chi[d % D], log_eta((a * tau + b) / (c * tau + d)), log_eta(tau)))
    return logs


def _gamma0_worst(D, lp_factor=2, swap=False):
    """The largest distance from 2 pi i Z, over _gamma0_logs(D), of
    log eta(gamma tau) - log eta(tau) where chi(d) = 1, and of
    log eta(gamma tau) + log eta(tau) - lp_factor L'(0, chi) where
    chi(d) = -1, or where chi(d) = 1 with the cases swapped."""
    lp = lp_factor * l_prime_zero_fixed(build_char_table(D), 64) / 2**64
    worst = 0.0
    for chi_d, log_g, log_t in _gamma0_logs(D):
        x = log_g - log_t if chi_d == (-1 if swap else 1) else log_g + log_t - lp
        worst = max(worst, abs(x - 2j * math.pi * round(x.imag / (2 * math.pi))))
    return worst


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


class TestGamma0Law:
    @pytest.mark.parametrize("D", GAMMA0_DS)
    def test_law_holds_off_the_hecke_group(self, D):
        """Both halves of the law hold to GAMMA0_TOL at every gamma of
        _gamma0_elements(D); it read at most 4.6e-11, at D = 101."""
        assert {chi_d for chi_d, _, _ in _gamma0_logs(D)} == {1, -1}
        assert _gamma0_worst(D) < GAMMA0_TOL

    @pytest.mark.parametrize("lp_factor, swap", [(1, False), (2, True)], ids=["half_l_prime", "swap"])
    @pytest.mark.parametrize("D", GAMMA0_DS)
    def test_mutated_law_fails(self, D, lp_factor, swap):
        """L'(0, chi) in place of 2 L'(0, chi), or the chi(d) cases swapped,
        misses the law by far more than GAMMA0_TOL."""
        assert _gamma0_worst(D, lp_factor, swap) > 1e3 * GAMMA0_TOL


ROOT = Path(__file__).resolve().parents[1]


def _ledger_tests():
    """The last cell, Test, of each row of README's ledger of claims about
    a_D: a node id in backticks, or none for an open claim."""
    ledger = (ROOT / "README.md").read_text().split("## Claims about a_D\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in ledger.splitlines() if line.startswith("| ") and not line.startswith("| Claim")]
    return [row.rstrip(" |").rsplit("| ", 1)[1] for row in rows]


def _is_test(node_id):
    """Whether node_id, path::Class::test or path::test, names a test class
    or test function that its file defines."""
    path, *names = node_id.split("::")
    if not (ROOT / path).is_file():
        return False
    scope = ast.parse((ROOT / path).read_text()).body
    for name in names:
        node = next((n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
        if node is None or not name.startswith(("Test", "test_")):
            return False
        scope = node.body
    return True


class TestLedger:
    def test_every_named_test_exists(self):
        cells = _ledger_tests()
        assert cells and all(c == "none" or re.fullmatch(r"`tests/\w+\.py(::\w+)+`", c) for c in cells)
        assert [c for c in cells if c != "none" and not _is_test(c.strip("`"))] == []

    @pytest.mark.parametrize("node_id", [
        "tests/test_conjectures.py::TestConjectureReports::test_no_such_progression",
        "tests/test_oracle.py::TestAssembly::_base",
        "tests/test_conjectures.py::_pairs",
        "tests/test_no_such_file.py::TestGamma0Law",
    ])
    def test_detects_a_missing_test(self, node_id):
        assert not _is_test(node_id)
