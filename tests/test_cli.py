import json
import subprocess
import sys
import time
from types import SimpleNamespace

import mpmath
import pytest
from oracles import embed_mp

from hecke_eta import cli
from hecke_eta.characters import fundamental_discriminants, is_fundamental
from hecke_eta.qseries import MAX_ORDER
from hecke_eta.quad_ring import RingElem


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_json_records(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--D", "5", "--N", "3", "--format", "json")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        last = json.loads(lines[-1])
        assert last["N"] == 3 and last["a"] == 0 and last["b"] == -4 and last["den"] == 2
        assert last["D"] == 5

    def test_json_roundtrip_identity(self, capsys):
        _, out, _ = run_cli(capsys, "coeffs", "--D", "13", "--N", "5", "--format", "json")
        for line in out.strip().splitlines():
            assert json.dumps(json.loads(line)) == line

    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--D", "5", "--N", "2")
        lines = out.strip().splitlines()
        assert lines[0] == "D,N,num_a,num_b,real"
        assert lines[1].startswith("5,1,-2,-2,")
        assert len(lines) == 3

    def test_usage_error_non_fundamental(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--D", "9", "--N", "3")
        assert code == 2
        assert "not fundamental" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "coeffs", "--D", "17", "--N", "8")
        _, out2, _ = run_cli(capsys, "coeffs", "--D", "17", "--N", "8")
        assert out1 == out2


class TestVerifyTable:
    def test_all_entries_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-table")
        assert code == 0
        assert "82/82 entries verified" in out
        assert "FAIL" not in out

    def test_corrupted_entry_fails(self, capsys, monkeypatch):
        from hecke_eta import golden

        broken = {D: dict(table) for D, table in golden.COEFF_TABLE.items()}
        broken[5][7] = (22, -8)  # deliberately wrong
        monkeypatch.setattr(golden, "COEFF_TABLE", broken)
        code, out, _ = run_cli(capsys, "verify-table")
        assert code == 1
        assert "FAIL a_5(7)" in out
        assert "expected (22-8*sqrt(5))/2" in out


class TestLValues:
    def test_d17(self, capsys):
        code, out, _ = run_cli(capsys, "lvalues", "--D", "17")
        rec = json.loads(out)
        assert code == 0
        assert rec["S_chi"] == 136
        assert rec["L_minus_1"] == "-4"
        assert rec["m"] == 2
        assert "L_prime_0" in rec

    def test_d5_fractional(self, capsys):
        _, out, _ = run_cli(capsys, "lvalues", "--D", "5")
        rec = json.loads(out)
        assert rec["L_minus_1"] == "-2/5"
        assert rec["m"] == "1/5"
        assert rec["S_chi"] == 4


class TestSmallCommands:
    def test_chars(self, capsys):
        code, out, _ = run_cli(capsys, "chars", "--D", "5")
        rec = json.loads(out)
        assert rec == {"D": 5, "values": [0, 1, -1, -1, 1], "qr": [1, 4], "nr": [2, 3]}

    def test_periods(self, capsys):
        code, out, _ = run_cli(capsys, "periods", "--D", "5")
        rec = json.loads(out)
        assert rec["f_plus"] == [
            "(2+0*sqrt(5))/2",
            "(1-1*sqrt(5))/2",
            "(2+0*sqrt(5))/2",
        ]
        assert rec["f_minus"][1] == "(1+1*sqrt(5))/2"

    def test_partitions(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "--D", "5", "--N", "10")
        rec = json.loads(out)
        assert rec["p"][:6] == [1, 1, 2, 3, 5, 7]
        assert rec["p_nr"][4] == 1
        assert all(sum(row) == p for row, p in zip(rec["c"], rec["p"]))

    def test_delta5(self, capsys):
        code, out, _ = run_cli(capsys, "delta5", "--N", "4", "--format", "json")
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert [(r["a"], r["b"]) for r in recs] == [
            (2, 0),
            (-10, -10),
            (155, 45),
            (-560, -340),
        ]

    def test_oracle_check(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--D", "5", "--N", "10")
        assert code == 0
        assert "PASS 11/11" in out

    def test_verify_modularity(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-modularity", "--D", "5", "--samples", "3"
        )
        assert code == 0
        assert out.count("PASS") == 3

    def test_verify_modularity_overflow_is_a_failed_point(self, capsys):
        """At D = 1001 the fifth default sample overflows the float range in
        eta(-1/z): that point fails with residual inf, the rest still print."""
        code, out, _ = run_cli(capsys, "verify-modularity", "--D", "1001", "--samples", "5")
        lines = out.splitlines()
        assert code == 1
        assert len(lines) == 6
        assert lines[4] == (
            "FAIL z=-13.360656428755041+0.54500160987474144i "
            "inversion=inf translation=9.614e-53"
        )
        assert lines[5] == "worst residual inf over 5 points (tol 1e-06)"


class TestNumericInput:
    """Sample counts, truncations and tolerances that mean nothing are
    refused before any point is evaluated."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-modularity", "--D", "5", "--samples", "0"),
            ("verify-modularity", "--D", "5", "--samples", "-3"),
            ("verify-modularity", "--D", "5", "--nmax", "0"),
            ("verify-modularity", "--D", "5", "--nmax", "-3"),
            ("verify-modularity", "--D", "5", "--tol", "0"),
            ("verify-modularity", "--D", "5", "--tol=-1e-6"),
            ("verify-modularity", "--D", "5", "--tol", "nan"),
            ("verify-modularity", "--D", "5", "--tol", "inf"),
            ("grid", "--D", "5", "--nmax", "0"),
            ("grid", "--D", "5", "--nmax", "-3"),
        ],
    )
    def test_refused_with_empty_stdout(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-modularity", "--D", "5", "--samples", "1", "--nmax", "1", "--tol", "1e300"),
            ("grid", "--D", "5", "--re-steps", "1", "--im-steps", "1", "--nmax", "1"),
        ],
    )
    def test_smallest_values_accepted(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(out.splitlines()) == 2


def _strict_loads(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    """Every JSON-emitting command writes strict JSON: a value that is
    undefined or past the float range reads null."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("coeffs", "--D", "5", "--N", "8", "--format", "json"),
            ("delta5", "--N", "8", "--format", "json"),
            ("growth", "--D", "5", "--N", "8", "--format", "json"),
            ("partitions", "--D", "5", "--N", "8"),
            ("lvalues", "--D", "5"),
            ("periods", "--D", "13"),
            ("chars", "--D", "13"),
            ("signs", "--D", "5", "--N", "8"),
        ],
    )
    def test_every_record_parses_strictly(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.endswith("\n")
        for line in out.splitlines():
            _strict_loads(line)

    def test_undefined_fit_is_null(self, capsys):
        code, out, _ = run_cli(capsys, "growth", "--D", "5", "--N", "1", "--format", "json")
        assert code == 0
        rec = _strict_loads(out)
        assert rec["slope"] is rec["intercept"] is rec["fitted_C"] is None
        assert len(rec["pairs"]) == 1

    def test_real_past_the_float_range_is_null(self, capsys, monkeypatch):
        big = [RingElem(2**1100, 2**1100, 5), RingElem(-(2**1100), -(2**1100), 5)]
        monkeypatch.setattr(
            "hecke_eta.qseries.eta_series", lambda D, N: SimpleNamespace(coeffs=[None, *big])
        )
        code, out, _ = run_cli(capsys, "coeffs", "--D", "5", "--N", "2", "--format", "json")
        assert code == 0
        recs = [_strict_loads(line) for line in out.splitlines()]
        assert [(r["N"], r["real"]) for r in recs] == [(1, None), (2, None)]
        assert recs[0] == {"D": 5, "N": 1, **big[0].to_json_dict(), "real": None}
        # the CSV column keeps its inf
        code, out, _ = run_cli(capsys, "coeffs", "--D", "5", "--N", "2")
        assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]] == ["inf", "-inf"]
        code, out, _ = run_cli(capsys, "growth", "--D", "5", "--N", "2", "--format", "json")
        assert all(y > 709 for _, y in _strict_loads(out)["pairs"])


CAPPED_COMMANDS = [("coeffs", "--D", "5"), ("signs", "--D", "5"), ("growth", "--D", "5"), ("delta5",)]


class TestOrderCap:
    @pytest.mark.parametrize(
        "argv",
        [(*cmd, "--N", str(N)) for N in (MAX_ORDER + 1, 0) for cmd in CAPPED_COMMANDS],
    )
    def test_one_past_the_cap_is_refused_at_once(self, capsys, argv):
        """N one past either end of 1..MAX_ORDER exits 2 before any work."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_delta5_far_past_the_cap_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "delta5", "--N", "300000")
        assert code == 2
        assert out == ""
        assert "capacity limit" in err


class TestCostLimits:
    """oracle-check and partitions refuse inputs predicted to exceed the time budget."""

    @pytest.mark.parametrize(
        "command, D", [("oracle-check", 5), ("oracle-check", 41), ("partitions", 5), ("partitions", 101)]
    )
    def test_first_refused_order_exits_at_once(self, capsys, command, D):
        predicted_s = {"oracle-check": cli._oracle_check_s, "partitions": cli._partitions_s}[command]
        N = 1
        while predicted_s(D, N) <= cli.TIME_BUDGET_S:
            N += 1
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--D", str(D), "--N", str(N))
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_benchmark_ranges_stay_accepted(self):
        for D in fundamental_discriminants(41):
            assert cli._oracle_check_s(D, 80) <= cli.TIME_BUDGET_S
        for D in fundamental_discriminants(101):
            assert cli._partitions_s(D, 400) <= cli.TIME_BUDGET_S


class TestPartitionsMemory:
    """partitions refuses a table of counts predicted to exceed the memory
    budget, though its time model accepts it."""

    def test_large_table_refused_at_once(self, capsys):
        D, N = 2001, 6000
        assert cli._partitions_s(D, N) <= cli.TIME_BUDGET_S
        assert cli._partitions_mb(D, N) > cli.MEMORY_BUDGET_MB
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "partitions", "--D", str(D), "--N", str(N))
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_benchmark_ranges_stay_accepted(self):
        for D in fundamental_discriminants(101):
            assert cli._partitions_mb(D, 400) <= cli.MEMORY_BUDGET_MB

    def test_model_bounds_the_measured_peaks(self):
        """Peak RSS in MB of end-to-end runs (os.wait4, 2-vCPU x86-64,
        Python 3.11): the model stays above each and within 2x of it, also
        where D > N leaves most counts zero."""
        measured = {
            (1001, 3000): 159, (1001, 4000): 229, (1001, 5000): 299, (1001, 6000): 369,
            (101, 6000): 57, (101, 12000): 114, (101, 16000): 158, (301, 10000): 235,
            (5, 16000): 35, (5001, 2000): 179, (2001, 500): 27, (10001, 100): 24,
            (10001, 1000): 113, (100001, 10): 32, (100001, 100): 100, (900001, 0): 70,
        }
        for (D, N), mb in measured.items():
            assert mb <= cli._partitions_mb(D, N) <= 2 * mb, (D, N)


class TestSeriesBudget:
    """coeffs, signs and growth refuse (D, N) predicted to exceed the time
    budget, though D and N each lie inside their caps."""

    @pytest.mark.parametrize("command", ["coeffs", "signs", "growth"])
    def test_large_D_and_N_refused_at_once(self, capsys, command):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--D", "100049", "--N", "12000")
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert "time budget" in err

    @pytest.mark.parametrize("D", [1001, 3999997])
    def test_first_refused_order_exits_at_once(self, capsys, D):
        N = 1
        while cli._series_s(D, N) <= cli.TIME_BUDGET_S:
            N += 1
        assert N <= MAX_ORDER
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "coeffs", "--D", str(D), "--N", str(N))
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert "time budget" in err

    def test_benchmark_ranges_stay_accepted(self):
        for D in (5, 13, 17, 21):
            assert cli._series_s(D, 1000) <= cli.TIME_BUDGET_S
        for D in fundamental_discriminants(200):
            assert cli._series_s(D, 100) <= cli.TIME_BUDGET_S
        assert cli._series_s(5, MAX_ORDER) <= cli.TIME_BUDGET_S
        assert cli._series_s(cli.D_CAP["coeffs"], 1) <= cli.TIME_BUDGET_S


class TestNumericBudget:
    """verify-modularity and grid refuse work predicted to exceed the time budget."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("grid", "--D", "5", "--im-min", "1e-6", "--im-max", "1e-6", "--re-steps", "1",
             "--im-steps", "1", "--nmax", "100000000"),
            ("verify-modularity", "--D", "5", "--samples", "100000000"),
        ],
    )
    def test_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert "time budget" in err

    @pytest.mark.parametrize("command, D", [("verify-modularity", 101), ("grid", 17)])
    def test_first_refused_size_exits_at_once(self, capsys, command, D):
        """The smallest sample count (grid: row count) over budget, default --nmax."""
        per_unit = 4 if command == "verify-modularity" else 2 * 20
        k = 1
        while cli._numeric_s(D, per_unit * k, 300) <= cli.TIME_BUDGET_S:
            k += 1
        size = ["--samples", str(k)] if command == "verify-modularity" else [
            "--re-steps", "20", "--im-steps", str(k)]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--D", str(D), *size)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert "time budget" in err

    def test_benchmark_ranges_stay_accepted(self):
        for D in fundamental_discriminants(101):
            assert cli._numeric_s(D, 4 * 20, 300) <= cli.TIME_BUDGET_S
        for D in (5, 13, 17):
            assert cli._numeric_s(D, 2 * 20 * 6, 300) <= cli.TIME_BUDGET_S

    def test_model_follows_the_split(self):
        """950 samples at D = 101 took 1.3 s end to end; charging every point
        the direct product (nmax phi(D) logs) refused them."""
        assert cli._numeric_s(101, 4 * 950, 300) <= cli.TIME_BUDGET_S / 10
        low, high = (cli._numeric_s(101, 1000, 300, h) for h in (1e-4, 1.0))
        assert high < low


def _first_fundamental_above(n):
    D = n + 1
    while not is_fundamental(D):
        D += 1
    return D


SUBCOMMANDS_WITH_D = [
    ("coeffs", "--N", "3"),
    ("signs", "--N", "3"),
    ("growth", "--N", "3"),
    ("verify-modularity",),
    ("oracle-check", "--N", "3"),
    ("partitions", "--N", "3"),
    ("lvalues",),
    ("periods",),
    ("chars",),
    ("grid",),
]


class TestDiscriminantCap:
    """Every --D command refuses D above its measured limit before any work."""

    def test_every_command_with_D_is_capped(self):
        assert set(cli.D_CAP) == {argv[0] for argv in SUBCOMMANDS_WITH_D}

    @pytest.mark.parametrize("command", sorted(cli.D_CAP))
    @pytest.mark.parametrize("past", ["first", "far"])
    def test_refused_at_once(self, capsys, command, past):
        cap = cli.D_CAP[command]
        D = _first_fundamental_above(cap) if past == "first" else 10**30 + 1
        extra = next(argv[1:] for argv in SUBCOMMANDS_WITH_D if argv[0] == command)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--D", str(D), *extra)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert f"exceeds the limit {cap}" in err

    def test_benchmark_ranges_stay_accepted(self):
        for command in cli.D_CAP:
            assert cli.D_CAP[command] >= 200

    def test_cost_models_refuse_everything_above_their_caps(self):
        """The cap of oracle-check only stops the trial division; that of
        partitions is its binding limit, inside the time budget."""
        cap = cli.D_CAP["oracle-check"]
        for D in fundamental_discriminants(2 * cap):
            if D > cap:
                assert cli._oracle_check_s(D, 1) > cli.TIME_BUDGET_S
        assert cli._partitions_s(cli.D_CAP["partitions"], 0) <= cli.TIME_BUDGET_S


class TestDiscriminantCheck:
    @pytest.mark.parametrize("D", [9, 45])
    @pytest.mark.parametrize("argv", SUBCOMMANDS_WITH_D)
    def test_non_fundamental_is_a_usage_error(self, capsys, argv, D):
        code, out, err = run_cli(capsys, argv[0], "--D", str(D), *argv[1:])
        assert code == 2
        assert out == ""
        assert "not fundamental" in err

    def test_digits_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", "--D", "5", "--N", "3", "--digits", "30"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestSigns:
    def test_first_ten_signs_match_table(self, capsys):
        code, out, _ = run_cli(capsys, "signs", "--D", "5", "--N", "10")
        rec = json.loads(out)
        assert rec["signs"] == [-1, 1, -1, 1, 1, -1, -1, 1, -1, 1]
        assert rec["count"] == len(rec["sign_changes"])
        assert rec["sign_changes"][:3] == [2, 3, 4]


class TestGrowth:
    def test_csv_shape_and_fit(self, capsys):
        code, out, _ = run_cli(capsys, "growth", "--D", "5", "--N", "60")
        lines = out.strip().splitlines()
        assert lines[0].startswith("# D=5")
        assert "slope=" in lines[0]
        header_idx = next(i for i, l in enumerate(lines) if l == "sqrt_N,log_abs_a")
        rows = lines[header_idx + 1 :]
        assert len(rows) == 60
        x, y = rows[-1].split(",")
        assert float(x) > 7.7

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "growth", "--D", "5", "--N", "50", "--format", "json",
            "--window-min", "10", "--window-max", "50",
        )
        rec = json.loads(out)
        assert rec["window"] == [10, 50]
        assert rec["fitted_C"] == rec["slope"]
        assert len(rec["pairs"]) == 50

    def test_bad_window(self, capsys):
        code, _, err = run_cli(
            capsys, "growth", "--D", "5", "--N", "50", "--window-min", "30",
            "--window-max", "10",
        )
        assert code == 2

    def test_log_past_the_float_range(self, capsys, monkeypatch):
        big = [RingElem(2**1100, 2**1100, 5), RingElem(-(2**1100) - 2, 2**1099, 5)]
        monkeypatch.setattr(
            "hecke_eta.qseries.eta_series", lambda D, N: SimpleNamespace(coeffs=[None, *big])
        )
        code, out, _ = run_cli(capsys, "growth", "--D", "5", "--N", "2", "--format", "json")
        assert code == 0
        ys = [y for _, y in json.loads(out)["pairs"]]
        assert ys == [float(mpmath.log(abs(embed_mp(x)))) for x in big]
        assert all(y > 709 for y in ys)


class TestGrid:
    def test_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "grid", "--D", "5", "--re-min", "-1", "--re-max", "1",
            "--im-min", "0.4", "--im-max", "1.0", "--re-steps", "4",
            "--im-steps", "3", "--nmax", "120",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "re,im,re_eta,im_eta,re_eta_inv,im_eta_inv"
        assert len(lines) == 1 + 12
        assert all(len(l.split(",")) == 6 for l in lines[1:])

    def test_grid_rows_show_inversion_invariance(self, capsys):
        _, out, _ = run_cli(
            capsys, "grid", "--D", "5", "--re-min", "0.3", "--re-max", "0.6",
            "--im-min", "0.8", "--im-max", "1.0", "--re-steps", "2",
            "--im-steps", "2", "--nmax", "300",
        )
        for line in out.strip().splitlines()[1:]:
            _, _, re_eta, im_eta, re_inv, im_inv = map(float, line.split(","))
            assert abs(re_eta - re_inv) < 1e-9
            assert abs(im_eta - im_inv) < 1e-9

    @pytest.mark.parametrize("im_max", ["0.54500160987474144", "3"])
    def test_overflow_prints_inf_and_fails(self, capsys, im_max):
        """eta(-1/z) at the overflowing verify-modularity point of D = 1001
        reads inf in both its columns, and a second row (im 3) still prints."""
        re_z, im_z = "-13.360656428755041", "0.54500160987474144"
        steps = "1" if im_max == im_z else "2"
        code, out, _ = run_cli(
            capsys, "grid", "--D", "1001", "--re-min", re_z, "--re-max", re_z,
            "--im-min", im_z, "--im-max", im_max, "--re-steps", "1", "--im-steps", steps,
        )
        lines = out.splitlines()
        assert code == 1
        assert len(lines) == 1 + int(steps)
        cols = lines[1].split(",")
        assert cols[:2] == [re_z, im_z] and cols[4:] == ["inf", "inf"]
        assert all(abs(float(c)) < 1 for c in cols[2:4])
        if steps == "2":
            assert lines[2].startswith(f"{re_z},3,") and "inf" not in lines[2]


    @pytest.mark.parametrize(
        "bounds",
        [
            ("--im-min", "0.5", "--im-max", "-1"),
            ("--im-min", "0.5", "--im-max", "0"),
            ("--im-min", "0", "--im-max", "1"),
            ("--im-min", "-0.5", "--im-max", "1"),
            ("--im-min", "0.5", "--im-max", "nan"),
            ("--im-min", "nan", "--im-max", "1"),
            ("--im-min", "0.5", "--im-max", "inf"),
            ("--re-min=-inf", "--im-min", "0.5", "--im-max", "1"),
            ("--re-max", "nan", "--im-min", "0.5", "--im-max", "1"),
        ],
    )
    def test_bad_bounds_are_a_usage_error(self, capsys, bounds):
        """An Im bound at or below 0, or a bound that is not finite, is
        refused before any row is printed."""
        code, out, err = run_cli(
            capsys, "grid", "--D", "5", *bounds, "--re-steps", "1", "--im-steps", "2",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hecke_eta.cli", "chars", "--D", "13"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        rec = json.loads(proc.stdout)
        assert rec["D"] == 13
