"""Floating-point evaluation of the eta analogues and the law checks.

Evaluates the truncated products on the upper half-plane, measures the
residuals of the inversion/translation laws and of the Phi / Phi-sharp
modular relation, verifies the fifth-root-of-unity multiplier on words of
the D = 5 Hecke group, and computes the coefficient-growth envelope.

The fractional q^v prefactor is always exp(2 pi i v z / sqrt(D)) computed
from z itself, never a power of q, which removes the branch ambiguity for
the D = 5 valuation 1/5.  Product logs are accumulated termwise (each
factor 1 - w has Re > 0 for |w| < 1, so principal logs are safe) and
exponentiated once, so near-real-axis points cannot overflow midway.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

from .characters import CharTable, build_char_table, euler_phi, prime_factors
from .lseries import l_minus_one, l_prime_zero


class ConditioningError(ValueError):
    """Evaluation point too close to the real axis for the truncation."""


def _require_upper(z: complex) -> complex:
    z = complex(z)
    if not z.imag > 0:
        raise ValueError(f"point {z} is not in the upper half-plane")
    return z


def _zeta_powers(D: int) -> list[complex]:
    return [cmath.exp(2j * math.pi * a / D) for a in range(D)]


def log_eta_tail(D: int, z: complex, n_max: int, ct: CharTable | None = None) -> complex:
    """log of the truncated product part of eta_D (no q^v prefactor)."""
    z = _require_upper(z)
    if ct is None:
        ct = build_char_table(D)
    chi = ct.values
    zetas = _zeta_powers(D)
    q = cmath.exp(2j * math.pi * z / math.sqrt(D))
    total = 0.0 + 0.0j
    qn = 1.0 + 0.0j
    for n in range(1, n_max + 1):
        qn *= q
        if abs(qn) < 1e-320:
            break
        e = chi[n % D]
        if e:
            total += e * cmath.log(1 - qn)
        for a in range(1, D):
            ea = chi[a]
            if ea:
                total += ea * cmath.log(1 - zetas[a] * qn)
    return total


def eval_eta_numeric(D: int, z: complex, n_max: int = 300) -> complex:
    """Truncated eta_D(z) with q = exp(2 pi i z / sqrt(D))."""
    z = _require_upper(z)
    ct = build_char_table(D)
    v = l_minus_one(ct).m_exponent
    pref = 2j * math.pi * float(v) * z / math.sqrt(D)
    return cmath.exp(pref + log_eta_tail(D, z, n_max, ct))


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


def check_phi_relation(D: int, y: float, n_max: int = 400, digits: int = 30) -> float:
    """Residual of the Phi-sharp / Phi relation on the imaginary axis.

    Computes |Phi#(i/y) - exp(L'(0,chi) + y pi L(-1,chi)/sqrt(D)) Phi(iy)|
    with both products truncated at n_max, in mpmath at `digits` digits.
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
        q2 = mpmath.exp(-2 * mpmath.pi / (y * sqrtD))
        zetas = [mpmath.exp(2j * mpmath.pi * a / D) for a in range(D)]
        phi_sharp = mpmath.mpc(1)
        qn = mpmath.mpf(1)
        for n in range(1, n_max + 1):
            qn *= q2
            for a in range(1, D):
                e = ct.values[a]
                if e == 1:
                    phi_sharp *= 1 - zetas[a] * qn
                elif e == -1:
                    phi_sharp /= 1 - zetas[a] * qn
        lval = mpmath.mpf(rec.l_minus_one.numerator) / rec.l_minus_one.denominator
        factor = mpmath.exp(lp + y * mpmath.pi * lval / sqrtD)
        return float(abs(phi_sharp - factor * phi))


# ---------------------------------------------------------------------------
# Hecke-group words over Z[sqrt(D)] and the fifth-root multiplier law


Pair = tuple[int, int]  # u + v*sqrt(D)


def _pair_mul(x: Pair, y: Pair, D: int) -> Pair:
    return (x[0] * y[0] + D * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _mat_mul(m1, m2, D: int):
    a = tuple(
        tuple(
            _add(_pair_mul(m1[i][0], m2[0][j], D), _pair_mul(m1[i][1], m2[1][j], D))
            for j in range(2)
        )
        for i in range(2)
    )
    return a


def _add(x: Pair, y: Pair) -> Pair:
    return (x[0] + y[0], x[1] + y[1])


@dataclass(frozen=True)
class GroupWord:
    """Word T^{k_1} S T^{k_2} S ... S T^{k_l} with its symbolic matrix.

    Matrix entries are pairs (u, v) meaning u + v*sqrt(D); the determinant
    is checked to be exactly 1 at construction.
    """

    D: int
    ks: tuple[int, ...]
    mat: tuple[tuple[Pair, Pair], tuple[Pair, Pair]]

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
    """Multiply out the word symbolically in Z[sqrt(D)]."""
    ks = tuple(int(k) for k in ks)
    if not ks:
        raise ValueError("word must be nonempty")
    s_mat = (((0, 0), (-1, 0)), ((1, 0), (0, 0)))

    def t_mat(k: int):
        return (((1, 0), (0, k)), ((0, 0), (1, 0)))

    m = t_mat(ks[0])
    for k in ks[1:]:
        m = _mat_mul(m, s_mat, D)
        m = _mat_mul(m, t_mat(k), D)
    det = _sub(
        _pair_mul(m[0][0], m[1][1], D), _pair_mul(m[0][1], m[1][0], D)
    )
    if det != (1, 0):
        raise AssertionError(f"word determinant {det} != 1")
    return GroupWord(D=D, ks=ks, mat=m)


def _sub(x: Pair, y: Pair) -> Pair:
    return (x[0] - y[0], x[1] - y[1])


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
    ct = build_char_table(5)
    v = float(l_minus_one(ct).m_exponent)
    log_ratio = (
        2j * math.pi * v * (gz - z) / math.sqrt(5)
        + log_eta_tail(5, gz, n_eff, ct)
        - log_eta_tail(5, z, n_eff, ct)
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


@dataclass(frozen=True)
class EnvelopeConstants:
    """The two growth constants and the one the envelope actually uses.

    c_tilde comes from the Cauchy-Schwarz combination of the partition
    bounds; c_remark is the larger constant stated for prime D (they differ
    by a factor sqrt(5)).  No resolution between them is assumed: the
    envelope takes the max.
    """

    D: int
    c0: float
    cD: float
    c_tilde: float
    c_remark: float | None
    c_used: float


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
