from oracles import TAU5_DISPLAY_VARIANT

from hecke_eta.golden import (
    COEFF_TABLE,
    TAU5_TABLE,
    golden_coefficients,
    golden_tau5,
)


class TestGoldenData:
    def test_table_shape(self):
        entries = golden_coefficients()
        assert len(entries) == 75
        assert {D for D, _, _ in entries} == {5, 13, 17}
        for D in (5, 13, 17):
            ns = sorted(N for d, N, _ in entries if d == D)
            assert ns == list(range(1, 26))

    def test_all_entries_satisfy_parity(self):
        for _, _, value in golden_coefficients():
            assert (value.num_a - value.num_b) % 2 == 0
        for N, value in golden_tau5():
            assert (value.num_a - value.num_b) % 2 == 0

    def test_display_variant_is_recorded(self):
        idx, pair = TAU5_DISPLAY_VARIANT
        assert idx == 6
        assert TAU5_TABLE[7] == pair
        assert TAU5_TABLE[6] != pair

    def test_spot_values(self):
        assert COEFF_TABLE[5][3] == (0, -4)       # -2 sqrt5
        assert COEFF_TABLE[13][10] == (715, -119)
        assert COEFF_TABLE[17][25] == (2762828, -671572)
