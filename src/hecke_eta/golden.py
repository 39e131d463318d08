"""Reference coefficient values embedded as static data.

Each entry is a numerator pair (a, b) for the value (a + b*sqrt(D))/2:
the 75 published a_D(N) values for D in {5, 13, 17}, N = 1..25, plus the
leading coefficients tau_5(N) of the fifth power of the D = 5 series.
Hermetic on purpose: verification never fetches anything.
"""

from .quad_ring import RingElem

# {D: {N: (a, b)}} with value (a + b*sqrt(D))/2
COEFF_TABLE: dict[int, dict[int, tuple[int, int]]] = {
    5: {
        1: (-2, -2),
        2: (7, 1),
        3: (0, -4),
        4: (8, -2),
        5: (12, -4),
        6: (13, -7),
        7: (22, -10),
        8: (35, -13),
        9: (38, -22),
        10: (69, -25),
        11: (74, -42),
        12: (129, -45),
        13: (140, -76),
        14: (216, -86),
        15: (268, -124),
        16: (352, -160),
        17: (466, -206),
        18: (603, -267),
        19: (754, -350),
        20: (1017, -429),
        21: (1216, -576),
        22: (1625, -693),
        23: (1970, -910),
        24: (2530, -1112),
        25: (3128, -1412),
    },
    13: {
        1: (-2, -2),
        2: (15, 1),
        3: (-4, -8),
        4: (54, 2),
        5: (0, -24),
        6: (132, -6),
        7: (54, -58),
        8: (310, -36),
        9: (256, -128),
        10: (715, -119),
        11: (728, -296),
        12: (1590, -328),
        13: (1824, -664),
        14: (3504, -786),
        15: (4320, -1412),
        16: (7398, -1782),
        17: (9522, -2934),
        18: (15069, -3855),
        19: (19972, -5940),
        20: (30138, -7914),
        21: (40348, -11708),
        22: (58843, -15677),
        23: (78780, -22572),
        24: (112004, -30230),
        25: (149822, -42530),
    },
    17: {
        1: (-2, -2),
        2: (15, -1),
        3: (38, -2),
        4: (13, -23),
        5: (138, -22),
        6: (278, -46),
        7: (332, -140),
        8: (984, -178),
        9: (1636, -364),
        10: (2484, -756),
        11: (5134, -1122),
        12: (8470, -1996),
        13: (13560, -3512),
        14: (23637, -5515),
        15: (37954, -9118),
        16: (59823, -14961),
        17: (97114, -23254),
        18: (152212, -36616),
        19: (234206, -57490),
        20: (363839, -87715),
        21: (553916, -134068),
        22: (834468, -203628),
        23: (1258094, -304090),
        24: (1871277, -453479),
        25: (2762828, -671572),
    },
}

# tau_5(N) for N = 1..7, pairs over denominator 2 in Q(sqrt(5)).
#
# The reference display for this expansion prints (20565+6965*sqrt5)/2 as its
# sixth coefficient, but that value fails the fifth-power consistency check
# against the a_5 table: expanding (sum a_5(k) q^k)^5 with the verified
# a_5(0..6) forces tau_5(6) = -3276 - 1880*sqrt5, and the printed constant
# is exactly tau_5(7) (confirmed independently by 40-digit Fourier extraction
# from the defining product).  The table below stores the consistent indexing;
# the printed constant is kept, one slot later, so every published number is
# still verified exactly.
TAU5_TABLE: dict[int, tuple[int, int]] = {
    1: (2, 0),
    2: (-10, -10),
    3: (155, 45),
    4: (-560, -340),
    5: (2830, 980),
    6: (-6552, -3760),
    7: (20565, 6965),
}


def golden_coefficients() -> list[tuple[int, int, RingElem]]:
    """All (D, N, value) coefficient entries, ordered by (D, N)."""
    out = []
    for D in sorted(COEFF_TABLE):
        for N in sorted(COEFF_TABLE[D]):
            a, b = COEFF_TABLE[D][N]
            out.append((D, N, RingElem(a, b, D)))
    return out


def golden_tau5() -> list[tuple[int, RingElem]]:
    """The (N, tau_5(N)) entries, N = 1..7."""
    return [(N, RingElem(*TAU5_TABLE[N], 5)) for N in sorted(TAU5_TABLE)]
