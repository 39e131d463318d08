"""Floating-point evaluation of the eta analogues and the law checks.

Evaluates the truncated products on the upper half-plane, measures the
residuals of the inversion/translation laws and of the Phi / Phi-sharp
modular relation, verifies the fifth-root-of-unity multiplier on words of
the D = 5 Hecke group, and computes the coefficient-growth envelope.

The fractional q^v prefactor is always exp(2 pi i v z / sqrt(D)) computed
from z itself, never a power of q, which removes the branch ambiguity for
the D = 5 valuation 1/5.  The product part

    prod_{n<=N} (1 - q^n)^chi(n) prod_{a mod D} (1 - zeta^a q^n)^chi(a)

is summed as principal logs (each factor 1 - w has Re > 0 for |w| < 1) and
exponentiated once, so near-real-axis points cannot overflow midway.  The
untwisted half takes one log per n.  The twisted half takes phi(D) logs
per n only up to a split point n0; for n0 < n <= N the Gauss sum
sum_a chi(a) zeta^{am} = chi(m) sqrt(D) and a geometric sum over n give the
same logs in closed form,

    -sqrt(D) sum_{m>=1} (chi(m)/m) q^{m(n0+1)} (1 - q^{m(N-n0)}) / (1 - q^m),

summed until a bound on the remaining terms is below 2^-60.  The split is
chosen per point from |q|, N and phi(D) to minimise the work; n0 = N is
the plain product, so no point costs more than phi(D) + 1 logs per n.
The per-D data (character table, q^v exponent, phi(D), roots of unity) is
built once per D.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple
from functools import lru_cache

from .characters import CharTable, build_char_table, euler_phi, prime_factors
from .lseries import l_minus_one, l_prime_zero


class ConditioningError(ValueError):
    """Evaluation point too close to the real axis for the truncation."""


def _require_upper(z: complex) -> complex:
    z = complex(z)
    if not z.imag > 0:
        raise ValueError(f"point {z} is not in the upper half-plane")
    return z


# The twisted series stops once the bound on its remaining terms, in the log
# of the product, is below 2^-60.
_LOG_EPS = -60 * math.log(2)

# Cost of one twisted-series term (two expm1 and one exp) in units of one log
# of the direct product, which weighs the split between the two: 3.6 us
# against 0.36 us on a 2-vCPU x86-64 machine with Python 3.11.
_TERM_COST = 10


class _EtaData:
    """The per-D data of the numeric evaluation; built once per D by _eta_data."""

    def __init__(self, D: int):
        ct = build_char_table(D)
        self.D = D
        self.chi = ct.values
        self.sqrt_d = math.sqrt(D)
        self.phi = euler_phi(D)
        self.v = float(l_minus_one(ct).m_exponent)
        self._roots = None

    def roots(self) -> tuple[list[complex], list[complex]]:
        """zeta^a for the residues and for the non-residues a mod D, built on
        first use: only points whose split has n0 > 0 need them."""
        if self._roots is None:
            zetas = [cmath.exp(2j * math.pi * a / self.D) for a in range(self.D)]
            self._roots = (
                [w for w, e in zip(zetas, self.chi) if e == 1],
                [w for w, e in zip(zetas, self.chi) if e == -1],
            )
        return self._roots


_eta_data = lru_cache(maxsize=16)(_EtaData)


def _series_ratio(L: float, n0: int, sqrt_d: float, log_eps: float) -> float:
    """A real M + 1 from which the twisted series' tail is below exp(log_eps).

    With r = |q| = exp(-L), the terms after M, times sqrt(D), are bounded by
    2 sqrt(D) r^{(M+1)(n0+1)} / ((M+1)(1-r)(1-r^{n0+1})); the value returned
    makes the factor r^{(M+1)(n0+1)} alone bring that below the target.  It
    may be inf where L underflows.
    """
    k = (
        math.log(2 * sqrt_d)
        - math.log(-math.expm1(-L))
        - math.log(-math.expm1(-(n0 + 1) * L))
        - log_eps
    )
    return k / ((n0 + 1) * L)


def _split(L: float, N: int, phi: int, sqrt_d: float) -> tuple[int, int]:
    """(n0, M): direct twisted factors for n <= n0 and M series terms for the
    rest, minimising n0 * phi + _TERM_COST * M over 0, N and the two n0 next
    to the continuous optimum n0 + 1 = sqrt(_TERM_COST * M(0) / phi)."""
    if not L > 0:  # Im z underflowed: |q| rounds to 1 and no bound holds
        return N, 0
    best = (N * phi, N, 0.0)
    opt = math.sqrt(_TERM_COST * _series_ratio(L, 0, sqrt_d, _LOG_EPS) / phi)
    c = int(min(N, opt))
    for n0 in {0, c - 1, c}:
        if 0 <= n0 < N:
            m = max(0.0, _series_ratio(L, n0, sqrt_d, _LOG_EPS) - 1)
            best = min(best, (n0 * phi + _TERM_COST * m, n0, m))
    return best[1], math.ceil(best[2])


def _expm1(w: complex) -> complex:
    """exp(w) - 1 for Re w <= 0, accurate also where exp(w) is close to 1."""
    s = math.sin(0.5 * w.imag)
    return complex(
        math.expm1(w.real) * math.cos(w.imag) - 2 * s * s,
        math.exp(w.real) * math.sin(w.imag),
    )


def log_eta_tail(D: int, z: complex, n_max: int) -> complex:
    """log of the truncated product part of eta_D (no q^v prefactor).

    The character table comes with the per-D data, which is built once per D.
    """
    z = _require_upper(z)
    data = _eta_data(D)
    chi = data.chi
    t = 2j * math.pi * z / data.sqrt_d
    q = cmath.exp(t)
    n0, M = _split(-t.real, n_max, data.phi, data.sqrt_d)
    plus, minus = data.roots() if n0 else ([], [])
    total = 0.0 + 0.0j
    qn = 1.0 + 0.0j
    for n in range(1, n_max + 1):
        qn *= q
        if abs(qn) < 1e-320:
            break
        e = chi[n % D]
        if e:
            total += e * cmath.log(1 - qn)
        if n <= n0:
            total += sum(cmath.log(1 - w * qn) for w in plus)
            total -= sum(cmath.log(1 - w * qn) for w in minus)
    series = 0.0 + 0.0j
    for m in range(1, M + 1):
        c = chi[m % D]
        if c:
            w = m * t
            series += c / m * cmath.exp((n0 + 1) * w) * _expm1((n_max - n0) * w) / _expm1(w)
    return total - data.sqrt_d * series


def eval_eta_numeric(D: int, z: complex, n_max: int = 300) -> complex:
    """Truncated eta_D(z) with q = exp(2 pi i z / sqrt(D))."""
    z = _require_upper(z)
    data = _eta_data(D)
    pref = 2j * math.pi * data.v * z / data.sqrt_d
    return cmath.exp(pref + log_eta_tail(D, z, n_max))


def check_inversion(D: int, z: complex, n_max: int = 300) -> float:
    """Residual |eta_D(-1/z) - eta_D(z)|."""
    z = _require_upper(z)
    return abs(eval_eta_numeric(D, -1 / z, n_max) - eval_eta_numeric(D, z, n_max))


def check_translation(D: int, z: complex, n_max: int = 300) -> float:
    """Residual |eta_D(z + sqrt(D)) - u * eta_D(z)|.

    u = exp(2 pi i / 5) for D = 5 and u = 1 for D > 5.
    """
    z = _require_upper(z)
    u = cmath.exp(2j * math.pi / 5) if D == 5 else 1.0
    return abs(
        eval_eta_numeric(D, z + math.sqrt(D), n_max)
        - u * eval_eta_numeric(D, z, n_max)
    )


def sample_half_plane_points(
    D: int, count: int, seed: int = 20240901, im_range=(0.5, 1.5)
) -> list[complex]:
    """Deterministic pseudo-random sample with |re| <= sqrt(D)/2."""
    rng = random.Random(seed * 1_000_003 + D)
    half = math.sqrt(D) / 2
    return [
        complex(rng.uniform(-half, half), rng.uniform(*im_range))
        for _ in range(count)
    ]


def _log_phi_sharp(ct: CharTable, y: float, n_max: int, digits: int):
    """log Phi#(i/y) truncated at n_max, in mpmath at `digits` + 10 digits.

    This is the twisted series of log_eta_tail with n0 = 0 on the real
    q = exp(-2 pi / (y sqrt(D))), summed until its tail bound is below
    10^-(digits+8).
    """
    import mpmath
    D = ct.D
    L = 2 * math.pi / (y * math.sqrt(D))
    log_eps = -(digits + 8) * math.log(10)
    M = math.ceil(max(0.0, _series_ratio(L, 0, math.sqrt(D), log_eps) - 1))
    with mpmath.workdps(digits + 10):
        sqrtD = mpmath.sqrt(D)
        L = 2 * mpmath.pi / (y * sqrtD)
        total = mpmath.mpf(0)
        for m in range(1, M + 1):
            c = ct.values[m % D]
            if c:
                x = m * L
                total += c * mpmath.exp(-x) * mpmath.expm1(-n_max * x) / (m * mpmath.expm1(-x))
        return -sqrtD * total


def check_phi_relation(D: int, y: float, n_max: int = 400, digits: int = 30) -> float:
    """Residual of the Phi-sharp / Phi relation on the imaginary axis.

    Computes |Phi#(i/y) - exp(L'(0,chi) + y pi L(-1,chi)/sqrt(D)) Phi(iy)|
    with both products truncated at n_max, in mpmath at `digits` digits:
    Phi as its direct product, Phi# by the twisted series (_log_phi_sharp).
    """
    import mpmath
    if y <= 0:
        raise ValueError("need y > 0")
    ct = build_char_table(D)
    rec = l_minus_one(ct)
    lp = l_prime_zero(ct, digits)
    with mpmath.workdps(digits + 10):
        sqrtD = mpmath.sqrt(D)
        q1 = mpmath.exp(-2 * mpmath.pi * y / sqrtD)
        phi = mpmath.mpf(1)
        qn = mpmath.mpf(1)
        for n in range(1, n_max + 1):
            qn *= q1
            e = ct.values[n % D]
            if e == 1:
                phi *= 1 - qn
            elif e == -1:
                phi /= 1 - qn
        phi_sharp = mpmath.exp(_log_phi_sharp(ct, y, n_max, digits))
        lval = mpmath.mpf(rec.l_minus_one.numerator) / rec.l_minus_one.denominator
        factor = mpmath.exp(lp + y * mpmath.pi * lval / sqrtD)
        return float(abs(phi_sharp - factor * phi))


# ---------------------------------------------------------------------------
# Hecke-group words over Z[sqrt(D)] and the fifth-root multiplier law


Pair = tuple[int, int]  # u + v*sqrt(D)


def _pair_mul(x: Pair, y: Pair, D: int) -> Pair:
    return (x[0] * y[0] + D * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


class GroupWord(namedtuple("GroupWord", "D ks mat")):
    """Word T^{k_1} S T^{k_2} S ... S T^{k_l} with its symbolic matrix.

    ks is the tuple of exponents; mat is ((m00, m01), (m10, m11)), whose
    entries are pairs (u, v) meaning u + v*sqrt(D).  The determinant is
    checked to be exactly 1 at construction (word_matrix).
    """

    __slots__ = ()

    def entry_floats(self) -> tuple[float, float, float, float]:
        s = math.sqrt(self.D)
        (m00, m01), (m10, m11) = self.mat
        return (
            m00[0] + m00[1] * s,
            m01[0] + m01[1] * s,
            m10[0] + m10[1] * s,
            m11[0] + m11[1] * s,
        )

    def apply(self, z: complex) -> complex:
        a, b, c, d = self.entry_floats()
        return (a * z + b) / (c * z + d)


def word_matrix(ks, D: int = 5) -> GroupWord:
    """Multiply out the word symbolically in Z[sqrt(D)].

    Start from T^{k_1} = (1, k_1 sqrt(D); 0, 1) and multiply by S T^k =
    (0, -1; 1, k sqrt(D)) on the right for each later k, which maps the
    columns (c0, c1) to (c1, k sqrt(D) c1 - c0); (u, v) k sqrt(D) is
    (k D v, k u).
    """
    ks = tuple(int(k) for k in ks)
    if not ks:
        raise ValueError("word must be nonempty")
    c0 = ((1, 0), (0, 0))
    c1 = ((0, ks[0]), (1, 0))
    for k in ks[1:]:
        c0, c1 = c1, tuple((k * D * v - u0, k * u - v0) for (u, v), (u0, v0) in zip(c1, c0))
    (a, b), (c, d) = _pair_mul(c0[0], c1[1], D), _pair_mul(c1[0], c0[1], D)
    det = (a - c, b - d)
    if det != (1, 0):
        raise AssertionError(f"word determinant {det} != 1")
    return GroupWord(D=D, ks=ks, mat=((c0[0], c1[0]), (c0[1], c1[1])))


def predicted_u(w: GroupWord) -> int:
    """Fifth-root exponent u with eta_5(gamma z) = exp(2 pi i u/5) eta_5(z).

    Even-length words have the form (a sqrt5, b; c, d sqrt5) and give
    u = c(a+d) mod 5; odd-length words have the transposed shape and give
    u = a(b-c) mod 5.  Both must agree with sum(k_i) mod 5, which is
    asserted.
    """
    if w.D != 5:
        raise ValueError("the multiplier law is only established for D = 5")
    (m00, m01), (m10, m11) = w.mat
    if len(w.ks) % 2 == 0:
        if m00[0] or m11[0] or m01[1] or m10[1]:
            raise AssertionError(f"even word has unexpected matrix shape: {w.mat}")
        a, b, c, d = m00[1], m01[0], m10[0], m11[1]
        u = c * (a + d) % 5
    else:
        if m00[1] or m11[1] or m01[0] or m10[0]:
            raise AssertionError(f"odd word has unexpected matrix shape: {w.mat}")
        a, b, c, d = m00[0], m01[1], m10[1], m11[0]
        u = a * (b - c) % 5
    if u != sum(w.ks) % 5:
        raise AssertionError(
            f"multiplier {u} disagrees with exponent sum {sum(w.ks) % 5}"
        )
    return u


def adapted_point(w: GroupWord) -> complex:
    """Evaluation point with im(z) = im(gamma z), on the isometric circle.

    For contracting words both z and gamma z then sit at height 1/|c|, the
    best a single test point can do; callers scale n_max accordingly.
    """
    a, b, c, d = w.entry_floats()
    if abs(c) < 1e-9:
        return complex(0.25, 0.9)
    t = 1.0 if c > 0 else -1.0
    return complex(-d / c, t / c)


def check_u_gamma(
    w: GroupWord,
    z: complex | None = None,
    n_max: int = 300,
    min_height: float = 1e-7,
) -> float:
    """Residual |eta_5(gamma z)/eta_5(z) - exp(2 pi i u/5)|.

    With z = None an adapted, well-conditioned point is chosen and n_max is
    raised so the truncation tail stays below the 1e-4 scale even for
    contracting words.  An explicit z raises ConditioningError when z or
    gamma z sits too close to the real axis for any reasonable truncation.
    """
    u = predicted_u(w)
    if z is None:
        z = adapted_point(w)
    z = _require_upper(z)
    gz = w.apply(z)
    h = min(z.imag, gz.imag)
    if h < min_height:
        raise ConditioningError(
            f"evaluation height {h:.2e} below {min_height:.0e}; |cz+d| too small"
        )
    # tail of log eta is below ~(phi(D)+1) |q|^{n}/(1-|q|); force exponent 22
    n_needed = int(22 * math.sqrt(5) / (2 * math.pi * h)) + 1
    n_eff = max(n_max, min(n_needed, 2_000_000))
    log_ratio = (
        2j * math.pi * _eta_data(5).v * (gz - z) / math.sqrt(5)
        + log_eta_tail(5, gz, n_eff)
        - log_eta_tail(5, z, n_eff)
    )
    return abs(cmath.exp(log_ratio) - cmath.exp(2j * math.pi * u / 5))


def random_words(
    count: int, max_len: int = 6, k_range: int = 2, seed: int = 31415
) -> list[GroupWord]:
    """Deterministic sample of words with entries |k_i| <= k_range."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        ell = rng.randint(1, max_len)
        ks = [rng.randint(-k_range, k_range) for _ in range(ell)]
        words.append(word_matrix(ks, 5))
    return words


# ---------------------------------------------------------------------------
# Coefficient-growth envelope


class EnvelopeConstants(
    namedtuple("EnvelopeConstants", "D c0 cD c_tilde c_remark c_used")
):
    """The two growth constants and the one the envelope actually uses.

    c_tilde comes from the Cauchy-Schwarz combination of the partition
    bounds; c_remark is the larger constant stated for prime D (they differ
    by a factor sqrt(5)), None for composite D.  No resolution between them
    is assumed: the envelope takes the max, c_used.  All are floats.
    """

    __slots__ = ()


def envelope_constants(D: int) -> EnvelopeConstants:
    c0 = math.pi * math.sqrt(2.0 / 3.0)
    if prime_factors(D) == [(D, 1)]:
        cD = (math.pi / math.sqrt(3.0)) * math.sqrt((D - 1) / D)
        c_remark = math.pi / math.sqrt(3.0 * D) * math.sqrt(5 * D * D + 7 * D - 10)
    else:
        cD = c0
        c_remark = None
    phi = euler_phi(D)
    c_tilde = math.sqrt(2 * cD * cD + c0 * c0 * (phi / 2 + 0.2))
    c_used = max(c_tilde, c_remark) if c_remark is not None else c_tilde
    return EnvelopeConstants(
        D=D, c0=c0, cD=cD, c_tilde=c_tilde, c_remark=c_remark, c_used=c_used
    )


def bound_envelope(D: int, N: int) -> float:
    """exp(C sqrt(N)) * N^{phi/4+1} * log(N+2)^{phi/2+1} with C = c_used."""
    if N < 0:
        raise ValueError("N must be >= 0")
    cons = envelope_constants(D)
    phi = euler_phi(D)
    return (
        math.exp(cons.c_used * math.sqrt(N))
        * N ** (phi / 4 + 1)
        * math.log(N + 2) ** (phi / 2 + 1)
    )
