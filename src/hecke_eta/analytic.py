"""Floating-point evaluation of the eta analogues and the law checks.

Evaluates the truncated products on the upper half-plane and prices them
(product_s, numeric_s), measures the residuals of the inversion/translation
laws, by one route (law_residuals, one evaluation at each of law_points: z,
-1/z and z + sqrt(D)), and of the Phi / Phi-sharp modular relation,
verifies the fifth-root-of-unity multiplier on words of the D = 5 Hecke
group, and computes the coefficient-growth envelope.

The fractional q^v prefactor is always exp(2 pi i v z / sqrt(D)) computed
from z itself, never a power of q, which removes the branch ambiguity for
the D = 5 valuation 1/5.  The product part

    prod_{n<=N} (1 - q^n)^chi(n) prod_{a mod D} (1 - zeta^a q^n)^chi(a)

is summed as principal logs (each factor 1 - w has Re > 0 for |w| < 1) and
exponentiated once, so near-real-axis points cannot overflow midway.  Each
half takes direct logs up to its own split point and a closed form past it,
to N exactly.  The twisted half takes phi(D) logs per n up to n0; for
n0 < n <= N the Gauss sum sum_a chi(a) zeta^{am} = chi(m) sqrt(D) and a
geometric sum over n give the same logs in closed form,

    -sqrt(D) sum_{m>=1} (chi(m)/m) q^{m(n0+1)} (1 - q^{m(N-n0)}) / (1 - q^m).

The untwisted half takes one log per n up to nu; for nu < n <= N it is
-sum_{m>=1} S_m(q^m)/m with S_m(x) = sum_{nu<n<=N} chi(n) x^n, which the
periodicity of chi and chi summing to 0 over a period give in closed form
from two polynomials of degree below D (_untwisted_series).  One rule
truncates both halves: what a plan leaves out, series terms or direct
factors, is bounded below 2^-60 in the log of the product.  Each split is
chosen per point from |q|, N and D to minimise the work (_plan); a plan
without series is the plain product, stopped where its dropped factors
meet that bound, so no point costs more than phi(D) + 1 logs per n.  The
per-D data (character table, q^v exponent, phi(D), roots of unity) is
built once per D.  check_phi_relation needs more than a float: it computes
on ints in binary fixed point, with lseries' exp, log and pi, and takes y
exactly, so no routine here loads `decimal`.
"""

import cmath
import math
import random
from collections import Counter, namedtuple
from functools import cached_property, lru_cache
from itertools import accumulate

from .characters import build_char_table, euler_phi, prime_factors
from .lseries import exp_fixed, l_prime_zero_fixed, log_fixed, m_exponent, pi_fixed


class ConditioningError(ValueError):
    """Evaluation point too close to the real axis for the truncation."""


def _require_upper(z: complex) -> complex:
    z = complex(z)
    if not z.imag > 0:
        raise ValueError(f"point {z} is not in the upper half-plane")
    return z


def _q_rounds_to_one(D: int, height: float) -> bool:
    """Whether |q| = exp(-2 pi height / sqrt(D)) rounds to 1, where no
    truncation of the product converges and no tail bound holds."""
    return math.exp(-2 * math.pi * height / math.sqrt(D)) == 1


# Each series, and the direct product where it takes no series, stops once the
# bound on what it leaves out, in the log of the product, is below 2^-60.
_LOG_EPS = -60 * math.log(2)

# Cost of one twisted-series term (two expm1 and one exp) in units of one log
# of the direct product, which weighs the split between the two: 3.6 us
# against 0.36 us on a 2-vCPU x86-64 machine with Python 3.11.
_TERM_COST = 10

# Cost of one untwisted-series term besides its Horner steps (three expm1 and
# one exp) in units of one direct untwisted factor (a step of q^n, and a log
# where chi(n) != 0), which weighs that half's split: on the same machine a
# term took 2.5-2.8 us plus 0.09 us a Horner step, against 0.21-0.31 us a
# factor, at D from 5 to 1001 (_untwisted_term_cost).
_UNTWISTED_TERM_COST = 10


class _EtaData:
    """The per-D data of the numeric evaluation; built once per D by _eta_data."""

    def __init__(self, D: int):
        self.D = D
        self.chi = build_char_table(D)
        self.sqrt_d = math.sqrt(D)
        self.phi = euler_phi(D)
        num, den = m_exponent(self.chi)
        self.v = num / den

    @cached_property
    def roots(self) -> tuple[list[complex], list[complex]]:
        """zeta^a for the residues and for the non-residues a mod D, built on
        first use: only points whose split has n0 > 0 need them."""
        zetas = [cmath.exp(2j * math.pi * a / self.D) for a in range(self.D)]
        return (
            [w for w, e in zip(zetas, self.chi) if e == 1],
            [w for w, e in zip(zetas, self.chi) if e == -1],
        )


_eta_data = lru_cache(maxsize=16)(_EtaData)


def _series_ratio(L: float, n0: int, scale: float, log_eps: float) -> float:
    """A real M + 1 from which a series' tail is below exp(log_eps).

    With r = |q| = exp(-L), the terms after M are bounded by
    scale r^{(M+1)(n0+1)} / ((M+1)(1-r)(1-r^{n0+1})): the twisted series,
    times sqrt(D), with scale = 2 sqrt(D), and the untwisted one with
    scale = 1.  The value returned makes the factor r^{(M+1)(n0+1)} alone
    bring that below the target.  It may be inf where L underflows.
    """
    k = (
        math.log(scale)
        - math.log(-math.expm1(-L))
        - math.log(-math.expm1(-(n0 + 1) * L))
        - log_eps
    )
    return k / ((n0 + 1) * L)


def _cheapest(L: float, N: int, per_n: float, per_term: float, scale: float) -> tuple[int, int]:
    """(n0, M): direct factors for n <= n0 at per_n each and M series terms,
    bound by scale (_series_ratio), at per_term each for n0 < n <= N.

    Without a series the product stops at stop = min(N, ceil(M(0)) - 1),
    the least n0 past which the dropped factors, the whole series from
    n0 + 1, are below the target.  That plan is taken at once where it costs
    no more than one term; else n0 minimises n0 * per_n + per_term * M over
    stop, 0 and the two n0 next to the optimum
    n0 + 1 = sqrt(per_term * M(0) / per_n).
    """
    first = _series_ratio(L, 0, scale, _LOG_EPS)
    stop = math.ceil(min(first, N + 1)) - 1
    if stop * per_n <= per_term:
        return stop, 0
    best = (stop * per_n, stop, 0.0)
    c = int(min(stop, math.sqrt(per_term * first / per_n)))
    for n0 in {0, c - 1, c}:
        if 0 <= n0 < stop:
            m = max(0.0, (_series_ratio(L, n0, scale, _LOG_EPS) if n0 else first) - 1)
            best = min(best, (n0 * per_n + per_term * m, n0, m))
    return best[1], math.ceil(best[2])


def _untwisted_term_cost(D: int) -> float:
    """Cost of one untwisted-series term in units of one direct untwisted
    factor: _UNTWISTED_TERM_COST, and two Horner passes of D - 1 + r < 2D
    steps, 3D/2 on average, at a third of a factor each."""
    return _UNTWISTED_TERM_COST + D / 2


def _plan(L: float, N: int, D: int, phi: int) -> tuple[int, int, int, int]:
    """(n0, M, nu, M_u) at |q| = exp(-L), truncation N, by _cheapest: the
    twisted half takes direct factors for n <= n0 at phi(D) logs each and M
    Gauss-sum series terms for n0 < n <= N at _TERM_COST; the untwisted half
    takes direct factors for n <= nu and M_u series terms (_untwisted_series)
    for nu < n <= N at _untwisted_term_cost(D)."""
    n0, M = _cheapest(L, N, phi, _TERM_COST, 2 * math.sqrt(D))
    nu, M_u = _cheapest(L, N, 1, _untwisted_term_cost(D), 1.0)
    return n0, M, nu, M_u


# Predicted seconds of one truncated product besides its logs (product_s):
# the call, the splits and its share of the printed row.  `grid --D 5
# --re-steps 300 --im-steps 300 --nmax 1`, 180000 products of one log each,
# took 4.8 s end to end, and 4.9-5.5 s in five re-timed runs.  No product
# costs less, which bounds grid's point count before its points are built.
PRODUCT_BASE_S = 3e-5
NUMERIC_DATA_S_PER_D = 6e-6


def product_s(D: int, nmax: int, height: float) -> float:
    """Predicted seconds of one truncated product at Im z = height, by its
    plan (_plan) at L = 2 pi height / sqrt(D): nu direct untwisted factors
    and M_u untwisted-series terms of _untwisted_term_cost(D) factors at
    0.9 us, and n0 direct twisted factors of phi(D) + 6 logs and M series
    terms of _TERM_COST logs at 0.4 us."""
    phi = euler_phi(D)
    n0, M, nu, M_u = _plan(2 * math.pi * height / math.sqrt(D), nmax, D, phi)
    untwisted = nu + _untwisted_term_cost(D) * M_u
    return PRODUCT_BASE_S + 9e-7 * untwisted + 4e-7 * (n0 * (phi + 6) + _TERM_COST * M)


def _height_bin(h: float) -> float:
    """The height a product at h is charged at: h rounded down to a multiple
    of 1/32 of its binade, so that few are charged (down, as product_s mostly
    falls with height); inf as is, met only beside a least height at |q| = 1."""
    m, e = math.frexp(h)
    return math.ldexp(math.floor(m * 32) / 32, e) if math.isfinite(h) else h


def numeric_s(D: int, nmax: int, heights) -> float | None:
    """Predicted seconds of one product at _height_bin(h) for each height h
    that heights() iterates, plus NUMERIC_DATA_S_PER_D a unit of D for the
    per-D data (character table, roots of unity); None where |q| rounds to 1
    at the least height.  One walk bins and counts the heights; no bin
    exceeds its height, so only where |q| rounds to 1 at the least bin does
    a second walk find the exact least height.

    Fitted to the 17 runs, D 5..1425237, nmax 1..3 * 10^7, up to 58 s, that
    CHANGES.md lists where the untwisted half became a closed-form sum, and
    an upper bound on end-to-end runs: from 1 s up it over-predicts by 1.04x
    to 2.5x, at every --nmax alike.  The least margin is at D = 5, where a
    product is mostly its fixed cost: verify-modularity --D 5 --samples
    238898, the most accepted at --nmax 300, took 27-36 s against 60 s (43-58
    s at 236175 samples on a loaded machine).  Start-up, which no term
    charges, can exceed a prediction below a second."""
    counts = Counter(map(_height_bin, heights()))
    if _q_rounds_to_one(D, min(counts)) and _q_rounds_to_one(D, min(heights())):
        return None
    return NUMERIC_DATA_S_PER_D * D + sum(n * product_s(D, nmax, h) for h, n in counts.items())


def _expm1(w: complex) -> complex:
    """exp(w) - 1 for Re w <= 0, accurate also where exp(w) is close to 1."""
    s = math.sin(0.5 * w.imag)
    return complex(
        math.expm1(w.real) * math.cos(w.imag) - 2 * s * s,
        math.exp(w.real) * math.sin(w.imag),
    )


def _untwisted_series(chi, t: complex, nu: int, N: int, M: int) -> complex:
    """sum_{m<=M} S_m(q^m) / m with q = exp(t), S_m(x) = sum_{nu<n<=N} chi(n) x^n,
    so that sum_{nu<n<=N} chi(n) log(1 - q^n) is minus it, in closed form.

    With s = nu + 1, N - nu = J D + r and R(x) = sum_{i<D} C_i x^i, where
    C_i = chi(s) + ... + chi(s+i): chi sums to 0 over a period, so C_{D-1} = 0
    and sum_{i<D} chi(s+i) x^i = (1 - x) R(x), and

        S_m(x) = x^s [(1-x) R(x) (1-x^{JD}) / (1-x^D) + x^{JD} sum_{i<r} chi(s+i) x^i],

    each 1 - x^k taken as -_expm1(k m t), and x and x^{JD} as 1 plus those,
    so nothing cancels where x is close to a D-th root of unity.
    """
    D = len(chi)
    s = nu + 1
    J, r = divmod(N - nu, D)
    period = [chi[(s + i) % D] for i in range(D)]
    sums = list(accumulate(period))[-2::-1]
    head = period[r - 1 :: -1] if r else []
    JD = J * D
    total = 0.0 + 0.0j
    for m in range(1, M + 1):
        w = m * t
        e1, eJ = _expm1(w), _expm1(JD * w)
        x = 1 + e1
        rx = px = 0.0 + 0.0j
        for c in sums:
            rx = rx * x + c
        for c in head:
            px = px * x + c
        total += cmath.exp(s * w) * ((1 + eJ) * px - e1 * rx * eJ / _expm1(D * w)) / m
    return total


def log_eta_tail(D: int, z: complex, n_max: int) -> complex:
    """log of the truncated product part of eta_D (no q^v prefactor).

    The twisted half takes direct factors for n <= n0 and the Gauss-sum
    series past n0; the untwisted half takes direct factors for n <= nu and
    its own series past nu (_plan).  Both series run to n_max exactly.  The
    character table comes with the per-D data, which is built once per D.
    Raises ConditioningError where |q| rounds to 1 (_q_rounds_to_one).
    """
    z = _require_upper(z)
    if _q_rounds_to_one(D, z.imag):
        raise ConditioningError(f"|q| rounds to 1 at z = {z}: Im z is too small for D={D}")
    data = _eta_data(D)
    chi = data.chi
    t = 2j * math.pi * z / data.sqrt_d
    q = cmath.exp(t)
    L = -t.real
    n0, M, nu, M_u = _plan(L, n_max, D, data.phi)
    plus, minus = data.roots if n0 else ([], [])
    total = 0.0 + 0.0j
    qn = 1.0 + 0.0j
    for n in range(1, max(nu, n0) + 1):
        qn *= q
        if n <= nu:
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
    total -= data.sqrt_d * series
    if M_u:
        total -= _untwisted_series(chi, t, nu, n_max, M_u)
    return total


def eval_eta_numeric(D: int, z: complex, n_max: int = 300) -> complex:
    """Truncated eta_D(z) with q = exp(2 pi i z / sqrt(D))."""
    z = _require_upper(z)
    data = _eta_data(D)
    pref = 2j * math.pi * data.v * z / data.sqrt_d
    return cmath.exp(pref + log_eta_tail(D, z, n_max))


def law_points(D: int, z: complex) -> tuple[complex, complex, complex]:
    """The points a law check evaluates: z, -1/z and z + sqrt(D)."""
    z = _require_upper(z)
    return z, -1 / z, z + math.sqrt(D)


def law_residuals(D: int, z: complex, n_max: int = 300) -> tuple[float, float]:
    """|eta_D(-1/z) - eta_D(z)| and |eta_D(z + sqrt(D)) - u * eta_D(z)|, with
    u = exp(2 pi i / 5) for D = 5 and 1 for D > 5, from one evaluation at
    each of law_points(D, z); inf in each law whose truncated product
    overflows the float range, which then reads as a failed law."""

    def eta(w: complex) -> complex | None:
        try:
            return eval_eta_numeric(D, w, n_max)
        except OverflowError:
            return None

    at_z, inv, tra = map(eta, law_points(D, z))
    u = cmath.exp(2j * math.pi / 5) if D == 5 else 1.0
    return (
        math.inf if at_z is None or inv is None else abs(inv - at_z),
        math.inf if at_z is None or tra is None else abs(tra - u * at_z),
    )


def check_inversion(D: int, z: complex, n_max: int = 300) -> float:
    """Residual |eta_D(-1/z) - eta_D(z)|, inf past the float range (law_residuals)."""
    return law_residuals(D, z, n_max)[0]


def check_translation(D: int, z: complex, n_max: int = 300) -> float:
    """Residual |eta_D(z + sqrt(D)) - u * eta_D(z)|, inf past the float range
    (law_residuals)."""
    return law_residuals(D, z, n_max)[1]


SAMPLE_IM_RANGE = (0.5, 1.5)  # the heights sample_half_plane_points draws


def sample_half_plane_points(D: int, count: int, seed: int = 20240901) -> list[complex]:
    """Deterministic pseudo-random sample with |re| <= sqrt(D)/2."""
    rng = random.Random(seed * 1_000_003 + D)
    half = math.sqrt(D) / 2
    return [complex(rng.uniform(-half, half), rng.uniform(*SAMPLE_IM_RANGE)) for _ in range(count)]


def samples_floor_s(D: int, nmax: int, samples: int) -> float:
    """A lower bound on numeric_s of `samples` samples, each charged at the
    greatest heights the law_points of one in SAMPLE_IM_RANGE = (lo, hi)
    can have: Im z <= hi and Im(-1/z) <= 1 / Im z <= 1 / lo.  It takes a
    product's charge to fall as its height grows, which held against the
    average charge of 200 samples at 68 fundamental D <= 1001 but not point
    by point: product_s rises where a plan's split moves, by up to 21% at
    D = 101 between heights 1.109 and 1.122 (ROADMAP item 5)."""
    lo, hi = SAMPLE_IM_RANGE
    one = 2 * product_s(D, nmax, hi) + product_s(D, nmax, 1 / lo)
    return NUMERIC_DATA_S_PER_D * D + samples * one


def _phi_sides(chi, y: float, n_max: int, bits: int) -> tuple[int, int, int]:
    """log Phi#(i/y), log Phi(iy) and L'(0,chi) + y pi L(-1,chi)/sqrt(D) in
    units of 2^-bits, both products truncated at n_max, for the row chi of
    build_char_table, D = len(chi), and y > 0 taken exactly: the relation
    says that the first is the sum of the other two.

    Phi is its direct product over running powers of q = exp(-L),
    L = 2 pi y / sqrt(D), its factors with chi = 1 and with chi = -1
    multiplied apart, each product held as v / 2^s with v cut to p + 1 bits
    after each factor, so that it keeps its relative precision however small
    it gets, and each product's log taken once (log_fixed).  log Phi#
    is the twisted series of log_eta_tail with n0 = 0 on r = exp(-L'),
    L' = 2 pi / (y sqrt(D)),

        -sqrt(D) sum_{m>=1} (chi(m)/m) r^m (1 - r^{m n_max}) / (1 - r^m),

    summed until its tail bound is below 2^-bits, with r^m and r^{m n_max} as
    running products.  All runs on ints in units of 2^-p.  The floors leave
    q^n off by about 1/L units and r^m by 1/L', which 1 - q^n and 1 - r^m
    magnify by 1/(nL) and 1/(mL'): p - bits includes twice the bits of
    1/min(L, L') for that cancellation.  The cuts lose under 2^-p of each
    product a factor, and the series adds up sqrt(D) M errors: the g guard
    bits cover those.
    """
    D = len(chi)
    a, b = y.as_integer_ratio()
    L, L_sharp = 2 * math.pi * y / math.sqrt(D), 2 * math.pi / (y * math.sqrt(D))
    M = math.ceil(max(0.0, _series_ratio(L_sharp, 0, 2 * math.sqrt(D), -bits * math.log(2)) - 1))
    g = 8 + (n_max * D * M).bit_length()
    p = bits + g + 2 * max(0, math.ceil(-math.log2(min(L, L_sharp))))
    one = 1 << p
    sqrt_d = math.isqrt(D << 2 * p)
    pi = pi_fixed(p)
    y_pi = a * pi * sqrt_d // (b * D << p)  # y pi / sqrt(D)
    q = exp_fixed(-2 * y_pi, p)
    t = (2 * b * pi << p) // (a * sqrt_d)  # L'
    r, r_n = exp_fixed(-t, p), exp_fixed(-n_max * t, p)
    qn = one
    prods = {1: (one, p), -1: (one, p)}
    for n in range(1, n_max + 1):
        qn = qn * q >> p
        if e := chi[n % D]:
            v, s = prods[e]
            v *= one - qn
            cut = v.bit_length() - p - 1
            prods[e] = v >> cut, s + p - cut
    total = 0
    rm = rmn = one
    for m in range(1, M + 1):
        rm = rm * r >> p
        rmn = rmn * r_n >> p
        if c := chi[m % D]:
            total += c * (rm * (one - rmn) // (m * (one - rm)))
    num, den = m_exponent(chi)
    factor = l_prime_zero_fixed(chi, p) - 2 * num * y_pi // den  # L(-1, chi) = -2m
    log_sharp = -(sqrt_d * total >> 2 * p - bits)
    return log_sharp, log_fixed(*prods[1], bits) - log_fixed(*prods[-1], bits), factor >> p - bits


def check_phi_relation(D: int, y: float, n_max: int = 400, digits: int = 30) -> float:
    """Residual of the Phi-sharp / Phi relation on the imaginary axis.

    Computes |Phi#(i/y) - exp(L'(0,chi) + y pi L(-1,chi)/sqrt(D)) Phi(iy)|
    with both products truncated at n_max and y taken exactly, on ints in
    units of 2^-F, F = ceil((digits + 10) log2(10)), where every quantity is
    real: both sides from their logs (_phi_sides), each exponentiated once.
    """
    if not 0 < y < math.inf:
        raise ValueError(f"need a finite y > 0, not {y!r}")
    bits = math.ceil((digits + 10) * math.log2(10))
    log_sharp, log_phi, log_factor = _phi_sides(build_char_table(D), y, n_max, bits)
    diff = exp_fixed(log_sharp, bits) - exp_fixed(log_phi + log_factor, bits)
    return abs(diff) / (1 << bits)


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
        return tuple(u + v * s for u, v in (m00, m01, m10, m11))

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
        raise AssertionError(f"multiplier {u} disagrees with exponent sum {sum(w.ks) % 5}")
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


# check_u_gamma refuses a point, z or gamma z, lower than U_GAMMA_MIN_HEIGHT.
U_GAMMA_MIN_HEIGHT = 1e-7


def check_u_gamma(w: GroupWord, z: complex | None = None) -> float:
    """Residual |eta_5(gamma z)/eta_5(z) - exp(2 pi i u/5)|.

    With z = None an adapted, well-conditioned point is chosen.  Both
    products are truncated where the twisted half's dropped factors at the
    lower point, bounded by its series (_series_ratio), are below 2^-60;
    the untwisted half's bound is smaller, and at the higher point both
    are.  An explicit z raises ConditioningError when z or gamma z sits too
    close to the real axis for any reasonable truncation.
    """
    u = predicted_u(w)
    if z is None:
        z = adapted_point(w)
    z = _require_upper(z)
    gz = w.apply(z)
    h = min(z.imag, gz.imag)
    if h < U_GAMMA_MIN_HEIGHT:
        raise ConditioningError(
            f"evaluation height {h:.2e} below {U_GAMMA_MIN_HEIGHT:.0e}; |cz+d| too small"
        )
    L = 2 * math.pi * h / math.sqrt(5)
    n_eff = math.ceil(_series_ratio(L, 0, 2 * math.sqrt(5), _LOG_EPS)) - 1
    log_ratio = (
        2j * math.pi * _eta_data(5).v * (gz - z) / math.sqrt(5)
        + log_eta_tail(5, gz, n_eff)
        - log_eta_tail(5, z, n_eff)
    )
    return abs(cmath.exp(log_ratio) - cmath.exp(2j * math.pi * u / 5))


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
