import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from oracles import embed_mp, fundamental_discriminants, l_prime_zero_decimal

from hecke_eta import analytic, cli, oracle, partitions, qseries
from hecke_eta.characters import build_char_table, is_fundamental
from hecke_eta.quad_ring import RingElem, embed_midpoint, embed_real


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one command line, help (argparse's
    SystemExit) included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exit_usage:
        code = exit_usage.code
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


LVALUES_LINES = {
    1000001: '{"S_chi": 126218110217984, "L_minus_1": "-63108992", "m": 31554496, '
    '"L_prime_0": 714.484854696947}\n',
    3999997: '{"S_chi": 2898103906420440, "L_minus_1": "-362263260", "m": 181131630, '
    '"L_prime_0": 1022.8802773618297}\n',
}


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

    def test_l_prime_0_is_the_float_of_the_decimal_ln_reference(self, capsys):
        for D in fundamental_discriminants(2000):
            _, out, _ = run_cli(capsys, "lvalues", "--D", str(D))
            ref = l_prime_zero_decimal(build_char_table(D), 50)
            assert json.loads(out)["L_prime_0"] == float(ref), D

    @pytest.mark.parametrize("D", sorted(LVALUES_LINES))
    def test_pinned_output_at_large_d(self, capsys, D):
        """The lines the Decimal.ln route printed."""
        assert run_cli(capsys, "lvalues", "--D", str(D)) == (0, LVALUES_LINES[D], "")


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

    def test_oracle_check_reports_the_first_divergence(self, capsys, monkeypatch):
        """An oracle whose coefficient 3 is off by 2 in A fails the check
        there, and the report shows both values."""
        convolution = oracle.a_via_convolution

        def off_by_two(D, N):
            coeffs = convolution(D, N)
            coeffs[3] = RingElem(coeffs[3].num_a + 2, coeffs[3].num_b, D)
            return coeffs

        monkeypatch.setattr(oracle, "a_via_convolution", off_by_two)
        code, out, _ = run_cli(capsys, "oracle-check", "--D", "5", "--N", "5")
        assert code == 1
        assert out == (
            "FAIL 5/6 coefficients match\n"
            "first divergence at N=3: direct (0-4*sqrt(5))/2 vs oracle (2-4*sqrt(5))/2\n"
        )

    def test_verify_modularity(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-modularity", "--D", "5", "--samples", "3"
        )
        assert code == 0
        assert out.count("PASS") == 3

    @pytest.mark.parametrize("D", [5, 13, 101])
    def test_verify_modularity_residuals_are_the_law_checks(self, capsys, D):
        """eta(z) is evaluated once a sample, and each printed residual is
        still the formatted check_inversion and check_translation value."""
        _, out, _ = run_cli(capsys, "verify-modularity", "--D", str(D), "--samples", "6")
        points = analytic.sample_half_plane_points(D, 6)
        lines = out.splitlines()[:-1]
        assert len(lines) == len(points)
        for z, line in zip(points, lines):
            assert line.endswith(
                f"+{z.imag:.17g}i inversion={analytic.check_inversion(D, z, 300):.3e} "
                f"translation={analytic.check_translation(D, z, 300):.3e}"
            )

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
            ("verify-modularity", "--D", "5", "--tol", "-1e-6"),
            ("verify-modularity", "--D", "5", "--tol", "nan"),
            ("verify-modularity", "--D", "5", "--tol", "inf"),
            ("grid", "--D", "5", "--nmax", "0"),
            ("grid", "--D", "5", "--nmax", "-3"),
        ],
    )
    def test_refused_with_empty_stdout(self, capsys, argv):
        """By the option's range, which cli reports in one line."""
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: argument {argv[3].split('=')[0]}: invalid ")
        assert err.endswith(f" value: {argv[-1].split('=')[-1]!r}\n")
        assert err.count("\n") == 1

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

    def test_dash_text_after_a_flag_is_its_value(self, capsys):
        """-x after --tol is its value, refused by its type, and a flag with
        no token after it has no value."""
        code, out, err = run_cli(capsys, "verify-modularity", "--D", "5", "--tol", "-x")
        assert (code, out) == (2, "")
        assert err == f"error: argument --tol: invalid {cli._POS.__name__} value: '-x'\n"
        code, out, err = run_cli(capsys, "verify-modularity", "--D", "5", "--tol")
        assert (code, out) == (2, "")
        assert err == "error: argument --tol: expected one argument\n"


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

# Each command's --D cap and factor in the series charge, from its row of cli.COMMANDS.
D_CAP = {command: row[3] for command, row in cli.COMMANDS.items() if row[3] is not None}
SERIES_FACTOR = {command: row[4] for command, row in cli.COMMANDS.items() if row[4] is not None}


def _integer_flags():
    """(command, flag) for every option of cli.COMMANDS that reads an int."""
    return [
        (command, flag)
        for command, (_, _, options, *_) in cli.COMMANDS.items()
        for flag, keywords in options.items()
        if "type" in keywords and isinstance(keywords["type"]("7"), int)
    ]


def _line_with(command, flag, text):
    """A command line that sets flag to text and each other required option
    to 5."""
    argv = [command, flag, text]
    for other, keywords in cli.COMMANDS[command][2].items():
        if keywords.get("required") and other != flag:
            argv += [other, "5"]
    return argv


class TestIntegerRange:
    """Every integer option stops at 2^53 in magnitude, below which every
    integer is exact as a float, so no cost model or numeric truncation
    that reads it overflows."""

    @pytest.mark.parametrize("value", [2**53 + 1, 10**400, -(10**400)])
    @pytest.mark.parametrize("command, flag", _integer_flags())
    def test_past_the_range_exits_2(self, capsys, command, flag, value):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *_line_with(command, flag, str(value)))
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command, flag", _integer_flags())
    def test_largest_value_runs_or_is_refused(self, capsys, command, flag):
        """At 2^53 the option is read directly, and the command runs or its
        cost model refuses the line at once."""
        argv = _line_with(command, flag, str(2**53))
        assert not isinstance(cli._parse(argv), str)
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code in (0, 1, 2)
        assert code != 2 or out == ""


def _first_refused_order(command, D=5):
    """The least N that the series model refuses for command at D (delta5
    runs at D = 5)."""
    width = SERIES_FACTOR[command]
    N = 1
    while width * qseries.kernel_s(D, N) <= cli.TIME_BUDGET_S:
        N += 1
    return N


class TestOrderCap:
    """The series model is the only limit on --N above 1, for delta5 too."""

    @pytest.mark.parametrize(
        "argv",
        [(*cmd, "--N", str(_first_refused_order(cmd[0]))) for cmd in CAPPED_COMMANDS]
        + [(*cmd, "--N", "0") for cmd in CAPPED_COMMANDS],
    )
    def test_one_past_the_cap_is_refused_at_once(self, capsys, argv):
        """N one past either end of the accepted orders, 0 and the first N
        that the model refuses, exits 2 before any work."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        if argv[-1] == "0":
            assert "error: argument --N: invalid " in err
        else:
            assert err == "error: --N exceeds the time budget\n"

    def test_delta5_far_past_the_cap_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "delta5", "--N", "300000")
        assert code == 2
        assert out == ""
        assert "time budget" in err

    def test_delta5_charge_accepts_every_order_to_16000(self):
        """delta5 accepted every N <= 16000 when 16000 was its order cap,
        and the model alone still does."""
        width = SERIES_FACTOR["delta5"]
        assert all(width * qseries.kernel_s(5, N) <= cli.TIME_BUDGET_S for N in range(1, 16001))


class TestCostLimits:
    """oracle-check and partitions refuse inputs predicted to exceed the time budget."""

    @pytest.mark.parametrize(
        "command, D", [("oracle-check", 5), ("oracle-check", 41), ("partitions", 5), ("partitions", 101)]
    )
    def test_first_refused_order_exits_at_once(self, capsys, command, D):
        predicted_s = {"oracle-check": oracle.compare_s, "partitions": partitions.tables_s}[command]
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
            assert oracle.compare_s(D, 80) <= cli.TIME_BUDGET_S
        for D in fundamental_discriminants(101):
            assert partitions.tables_s(D, 400) <= cli.TIME_BUDGET_S


class TestPartitionsMemory:
    """partitions refuses a table of counts predicted to exceed the memory
    budget, though its time model accepts it."""

    def test_large_table_refused_at_once(self, capsys):
        D, N = 2001, 6000
        assert partitions.tables_s(D, N) <= cli.TIME_BUDGET_S
        assert partitions.tables_mb(D, N) > cli.MEMORY_BUDGET_MB
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "partitions", "--D", str(D), "--N", str(N))
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_benchmark_ranges_stay_accepted(self):
        for D in fundamental_discriminants(101):
            assert partitions.tables_mb(D, 400) <= cli.MEMORY_BUDGET_MB

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
            assert mb <= partitions.tables_mb(D, N) <= 2 * mb, (D, N)


class TestSeriesBudget:
    """coeffs, signs, growth and delta5 refuse (D, N) predicted to exceed
    the time budget, though D lies inside its cap."""

    @pytest.mark.parametrize("command", ["coeffs", "signs", "growth"])
    def test_large_D_and_N_refused_at_once(self, capsys, command):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--D", "100049", "--N", "12000")
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert "time budget" in err

    @pytest.mark.parametrize("D", [5, 13, 29, 1001, 3999997])
    def test_first_refused_order_exits_at_once(self, capsys, D):
        """The first N that the model refuses exits 2 at once: at D = 5, 13
        and 29 it lies past 16000, the order cap that the model replaced."""
        N = _first_refused_order("coeffs", D)
        if D in (5, 13, 29):
            assert N > 16001
        for command in ("coeffs", "signs", "growth"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, command, "--D", str(D), "--N", str(N))
            assert time.perf_counter() - start < 5
            assert code == 2
            assert out == ""
            assert "time budget" in err

    def test_benchmark_ranges_stay_accepted(self):
        for D in (5, 13, 17, 21):
            assert qseries.kernel_s(D, 1000) <= cli.TIME_BUDGET_S
        for D in fundamental_discriminants(200):
            assert qseries.kernel_s(D, 100) <= cli.TIME_BUDGET_S
        assert qseries.kernel_s(5, 16000) <= cli.TIME_BUDGET_S
        assert qseries.kernel_s(D_CAP["coeffs"], 1) <= cli.TIME_BUDGET_S


class TestChargeValues:
    """Each layer's charge, bit for bit, at the boundaries README states and
    at D past 10^5, where the character table's O(D) term matters: the
    sums keep the operand order of the charges they replaced, so no
    admission moves."""

    @pytest.mark.parametrize("D, N, charge", [
        (5, 21691, "0x1.dff9fea5c6698p+5"),
        (5, 21692, "0x1.e007972ddde2ap+5"),
        (29, 17412, "0x1.dff869a87c87bp+5"),
        (100049, 12000, "0x1.1adecc59dc843p+8"),
        (3999997, 1, "0x1.3333244af6b80p+2"),
    ])
    def test_series(self, D, N, charge):
        assert qseries.kernel_s(D, N).hex() == charge

    @pytest.mark.parametrize("N, charge", [
        (16250, "0x1.dffc039c67374p+5"), (16251, "0x1.e00e29a860a1bp+5"),
    ])
    def test_delta5(self, N, charge):
        assert (SERIES_FACTOR["delta5"] * qseries.kernel_s(5, N)).hex() == charge

    @pytest.mark.parametrize("D, N, seconds, mb", [
        (5, 18480, "0x1.dff9abe1e2acbp+5", "0x1.3b13c593c582ep+5"),
        (1001, 5000, "0x1.5801895760f6ep+3", "0x1.3b586cfa01a0fp+8"),
        (999997, 0, "0x1.37ce9eb856370p+0", "0x1.87ffcdd35d09cp+6"),
    ])
    def test_partitions(self, D, N, seconds, mb):
        assert (partitions.tables_s(D, N).hex(), partitions.tables_mb(D, N).hex()) == (seconds, mb)

    def test_grid_floor(self):
        assert analytic.points_floor_s(10**6).hex() == "0x1.e000000000000p+4"


class _Reached(Exception):
    """Raised by a stubbed layer: the command was accepted and began its work."""


# The boundaries README states, each line with the refusal it prints, or
# None where it is accepted.
README_LIMITS = [
    ("coeffs --D 5 --N 21691", None),
    ("coeffs --D 5 --N 21692", "--N exceeds the time budget"),
    ("delta5 --N 16250", None),
    ("delta5 --N 16251", "--N exceeds the time budget"),
    ("oracle-check --D 5 --N 5015", None),
    ("oracle-check --D 5 --N 5016", "--N out of range for the convolution oracle"),
    ("partitions --D 5 --N 18480", None),
    ("partitions --D 5 --N 18481", "--N out of range for the partition tables"),
    ("coeffs --D 100049 --N 3000", None),
    ("coeffs --D 100049 --N 12000", "--N exceeds the time budget"),
    ("verify-modularity --D 5 --samples 238898", None),
    ("verify-modularity --D 5 --samples 238899", "--samples and --nmax exceed the time budget"),
    ("verify-modularity --D 101 --samples 39642", None),
    ("verify-modularity --D 101 --samples 39643", "--samples and --nmax exceed the time budget"),
]


@pytest.mark.parametrize("argv, refusal", README_LIMITS)
def test_documented_limits(capsys, monkeypatch, argv, refusal):
    """Each line README names is refused or accepted as it says.  The work
    of each layer is stubbed to raise _Reached, so an accepted line stops
    where that work would begin."""

    def reached(*args, **kwargs):
        raise _Reached

    for layer, name in [
        (qseries, "eta_series"), (qseries, "tau5_values"), (oracle, "compare_with_eta"),
        (partitions, "build_partition_tables"), (analytic, "law_residuals"),
    ]:
        monkeypatch.setattr(layer, name, reached)
    if refusal is None:
        with pytest.raises(_Reached):
            cli.main(argv.split())
    else:
        assert run_cli(capsys, *argv.split()) == (2, "", f"error: {refusal}\n")


class TestNumericBudget:
    """verify-modularity and grid refuse work predicted to exceed the time budget."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("grid", "--D", "5", "--im-min", "1e-12", "--im-max", "1e-12", "--re-steps", "1",
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
        """The smallest sample count (grid: row count of 20 columns) over
        budget, default --nmax and --seed, found by bisection."""
        if command == "verify-modularity":
            def predicted(k):
                return analytic.numeric_s(D, 300, lambda: _sample_heights(D, k))
        else:
            def predicted(k):
                return analytic.numeric_s(D, 300, lambda: _default_grid_heights(20, k))
        lo, hi = 0, 1
        while predicted(hi) <= cli.TIME_BUDGET_S:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if predicted(mid) <= cli.TIME_BUDGET_S else (lo, mid)
        size = ["--samples", str(hi)] if command == "verify-modularity" else [
            "--re-steps", "20", "--im-steps", str(hi)]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--D", str(D), *size)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert "time budget" in err

    def test_point_count_refused_before_the_heights(self, capsys, monkeypatch):
        """A grid whose points alone, at PRODUCT_BASE_S a product
        (analytic.points_floor_s), exceed the budget is refused before its
        axes are built."""
        monkeypatch.setattr(cli, "_axis", None)
        steps = str(int(cli.TIME_BUDGET_S / analytic.PRODUCT_BASE_S) // 2 + 1)
        code, out, err = run_cli(capsys, "grid", "--D", "5", "--re-steps", steps, "--im-steps", "1")
        assert code == 2
        assert out == ""
        assert "time budget" in err

    def test_sample_count_refused_before_sampling(self, capsys, monkeypatch):
        """verify-modularity makes three products a sample; the least sample
        count whose lower bound (analytic.samples_floor_s) exceeds the budget is
        refused before any point is drawn."""
        monkeypatch.setattr(analytic, "sample_half_plane_points", None)
        per_d = analytic.samples_floor_s(5, 300, 0)
        per_sample = analytic.samples_floor_s(5, 300, 1) - per_d
        samples = int((cli.TIME_BUDGET_S - per_d) / per_sample) + 1
        assert analytic.samples_floor_s(5, 300, samples - 1) <= cli.TIME_BUDGET_S
        code, out, err = run_cli(capsys, "verify-modularity", "--D", "5", "--samples", str(samples))
        assert code == 2
        assert out == ""
        assert "time budget" in err

    def test_large_sample_count_refused_in_a_second(self, capsys):
        """Refused by the per-sample bound, before any point is drawn."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify-modularity", "--D", "5", "--samples", "499999")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "time budget" in err

    @pytest.mark.parametrize("nmax", [1, 300, 10**5])
    def test_sample_floor_is_a_lower_bound(self, nmax):
        """The bound charged before sampling, and before --seed is read, never
        exceeds the charge of the samples it stands for at any seed, but for
        the rounding of two sums that, where every product costs the same, add
        equal terms in another order: 1, 2 and 5 samples at the default seed
        and seeds 1-100, 20 at the default seed and seeds 1-10."""
        runs = [(samples, seed) for samples in (1, 2, 5) for seed in (DEFAULT_SEED, *range(1, 101))]
        runs += [(20, seed) for seed in (DEFAULT_SEED, *range(1, 11))]
        for D in [*fundamental_discriminants(101), 1001, 2000001]:
            for samples, seed in runs:
                charged = analytic.numeric_s(D, nmax, lambda: _sample_heights(D, samples, seed))
                floor = analytic.samples_floor_s(D, nmax, samples)
                assert floor <= charged * (1 + 1e-12), (D, samples, seed)

    def test_benchmark_ranges_stay_accepted(self):
        """Twenty samples of any seed, charged at the lowest heights a sample
        can have, and the benchmark's grids."""
        lo, hi = analytic.SAMPLE_IM_RANGE
        for D in fundamental_discriminants(101):
            lowest = [lo / (D / 4 + hi**2), lo, lo, lo] * 20
            assert analytic.numeric_s(D, 300, lambda: lowest) <= cli.TIME_BUDGET_S
        for D in (5, 13, 17):
            assert analytic.numeric_s(D, 300, lambda: _default_grid_heights(20, 6)) <= cli.TIME_BUDGET_S

    def test_model_follows_the_split(self):
        """950 samples at D = 101 took 1.0 to 1.5 s end to end; charging every
        point the direct product (nmax phi(D) logs) refused them."""
        assert analytic.numeric_s(101, 300, lambda: _sample_heights(101, 950)) <= cli.TIME_BUDGET_S / 10
        low, high = (analytic.numeric_s(101, 300, lambda: [h] * 1000) for h in (1e-4, 1.0))
        assert high < low

    def test_low_product_charged_to_its_count(self):
        """At 7.12e-5 i, D = 5, |q| = exp(-2e-4), the product takes the logs
        of its plan, which stops where the dropped factors are below 2^-60,
        not all 3 * 10^7, and is charged that plan."""
        start = time.perf_counter()
        analytic.eval_eta_numeric(5, 7.12e-5j, 3 * 10**7)
        took = time.perf_counter() - start
        assert took < 5
        assert took <= analytic.product_s(5, 3 * 10**7, 7.12e-5) <= 5

    def test_grid_charged_at_its_heights(self):
        """grid --D 1001 --re-steps 10 --im-steps 10 took 0.5 s end to end;
        charged at its lowest height, Im(-1/z) at z = -6 + 0.1i, every
        product was predicted at 4.5 s."""
        took, proc = _run_timed("grid", "--D", "1001", "--re-steps", "10", "--im-steps", "10")
        assert proc.returncode == 0
        predicted = analytic.numeric_s(1001, 300, lambda: _default_grid_heights(10, 10))
        assert took / 3 <= predicted <= 3 * took

    def test_verify_modularity_charged_at_its_heights(self):
        """verify-modularity --D 1001 --samples 200 took 1.0 to 1.4 s end to
        end; charged at the lowest heights any sample can have, it was
        predicted at 6.2 s."""
        took, proc = _run_timed("verify-modularity", "--D", "1001", "--samples", "200")
        assert proc.stdout.endswith(b"over 200 points (tol 1e-06)\n")
        predicted = analytic.numeric_s(1001, 300, lambda: _sample_heights(1001, 200))
        assert took / 3 <= predicted <= 3 * took

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-modularity", "--D", "13", "--samples", "3"),
            ("grid", "--D", "5", "--re-min", "-2", "--re-max", "3", "--re-steps", "3",
             "--im-steps", "2"),
        ],
    )
    def test_charged_at_the_evaluated_heights(self, capsys, monkeypatch, argv):
        """The multiset of binned heights that the command evaluates equals
        the one it is charged at."""
        evaluate, charge = analytic.eval_eta_numeric, analytic.numeric_s
        evaluated, charged = [], []

        def recorded_evaluate(D, w, n_max=300):
            evaluated.append(complex(w).imag)
            return evaluate(D, w, n_max)

        def recorded_charge(D, nmax, heights):
            charged.extend(heights())
            return charge(D, nmax, lambda: charged)

        monkeypatch.setattr(analytic, "eval_eta_numeric", recorded_evaluate)
        monkeypatch.setattr(analytic, "numeric_s", recorded_charge)
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 1) and out
        assert evaluated
        assert Counter(map(analytic._height_bin, evaluated)) == Counter(map(analytic._height_bin, charged))

    @pytest.mark.parametrize(
        "argv", [("verify-modularity", "--samples", "1"), ("grid", "--re-steps", "1", "--im-steps", "1")]
    )
    def test_least_work_at_the_cap_is_accepted(self, capsys, monkeypatch, argv):
        """One sample or one point at --nmax 1, at the largest fundamental D
        under the command's cap, is charged within the budget and runs (the
        evaluation itself is stubbed out here)."""
        D = D_CAP[argv[0]]
        while not is_fundamental(D):
            D -= 1
        charge, charges = analytic.numeric_s, []

        def recorded_charge(D, nmax, heights):
            charges.append(charge(D, nmax, heights))
            return charges[-1]

        monkeypatch.setattr(analytic, "numeric_s", recorded_charge)
        monkeypatch.setattr(analytic, "eval_eta_numeric", lambda D, w, n_max=300: 1j)
        code, out, _ = run_cli(capsys, *argv, "--D", str(D), "--nmax", "1")
        assert code == 0 and out
        assert len(charges) == 1 and charges[0] <= cli.TIME_BUDGET_S


def _run_timed(*argv):
    """(seconds, completed process) of one end-to-end run of the CLI."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hecke_eta.cli", *argv], capture_output=True, env=env)
    return time.perf_counter() - start, proc


# The seed of verify-modularity's samples where --seed is not given.
DEFAULT_SEED = cli.COMMANDS["verify-modularity"][2]["--seed"]["default"]


def _sample_heights(D, samples, seed=DEFAULT_SEED):
    """The heights verify-modularity evaluates at its samples z at this seed
    and analytic.SAMPLE_IM_RANGE: -1/z, then z twice (z + sqrt(D) has the
    height of z)."""
    points = analytic.sample_half_plane_points(D, samples, seed=seed)
    return [h for z in points for h in ((-1 / z).imag, z.imag, z.imag)]


def _default_grid_heights(re_steps, im_steps):
    """The heights grid evaluates over its default bounds: each z and -1/z."""
    res, ims = cli._axis(-6.0, 6.0, re_steps), cli._axis(0.1, 1.1, im_steps)
    return [h for im in ims for re in res for h in (im, (-1 / complex(re, im)).imag)]


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
        assert set(D_CAP) == {argv[0] for argv in SUBCOMMANDS_WITH_D}

    @pytest.mark.parametrize("command", sorted(D_CAP))
    @pytest.mark.parametrize("past", ["first", "far"])
    def test_refused_at_once(self, capsys, command, past):
        cap = D_CAP[command]
        D = _first_fundamental_above(cap) if past == "first" else 10**30 + 1
        extra = next(argv[1:] for argv in SUBCOMMANDS_WITH_D if argv[0] == command)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--D", str(D), *extra)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert f"exceeds the limit {cap}" in err

    def test_benchmark_ranges_stay_accepted(self):
        for command in D_CAP:
            assert D_CAP[command] >= 200

    def test_cost_models_refuse_everything_above_their_caps(self):
        """The cap of oracle-check only stops the trial division; that of
        partitions is its binding limit, inside the time budget."""
        cap = D_CAP["oracle-check"]
        for D in fundamental_discriminants(2 * cap):
            if D > cap:
                assert oracle.compare_s(D, 1) > cli.TIME_BUDGET_S
        assert partitions.tables_s(D_CAP["partitions"], 0) <= cli.TIME_BUDGET_S


class TestDiscriminantCheck:
    @pytest.mark.parametrize("D", [9, 45])
    @pytest.mark.parametrize("argv", SUBCOMMANDS_WITH_D)
    def test_non_fundamental_is_a_usage_error(self, capsys, argv, D):
        code, out, err = run_cli(capsys, argv[0], "--D", str(D), *argv[1:])
        assert code == 2
        assert out == ""
        assert "not fundamental" in err

    def test_digits_option_is_gone(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--D", "5", "--N", "3", "--digits", "30")
        assert (code, out) == (2, "")
        assert err == "error: unrecognized argument: --digits\n"


class TestSigns:
    def test_first_ten_signs_match_table(self, capsys):
        code, out, _ = run_cli(capsys, "signs", "--D", "5", "--N", "10")
        rec = json.loads(out)
        assert rec["signs"] == [-1, 1, -1, 1, 1, -1, -1, 1, -1, 1]
        assert rec["count"] == len(rec["sign_changes"])
        assert rec["sign_changes"][:3] == [2, 3, 4]


# growth --D 1000001 --N 460 --format csv: the rows N = 449..460, whose
# coefficients lie past the float range.
GROWTH_ROWS_PAST_FLOAT_RANGE = [
    "21.189620100417091,711.33849199428323",
    "21.213203435596427,712.24092418799944",
    "21.236760581595302,710.78007523229883",
    "21.2602916254693,713.86590461406956",
    "21.283796653792763,714.89036598334042",
    "21.307275752662516,714.19456670637067",
    "21.330729007701542,716.36535089875963",
    "21.354156504062622,717.51474049681599",
    "21.377558326431949,717.20944352109461",
    "21.400934559032695,718.83423468874093",
    "21.42428528562855,720.11592257441521",
    "21.447610589527216,720.07075938217088",
]


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

    def test_zero_coefficients_are_excluded(self, capsys, monkeypatch):
        """A zero a(2) has no log: both formats list it as excluded."""
        series = qseries.eta_series

        def zero_at_two(D, N):
            coeffs = list(series(D, N).coeffs)
            coeffs[2] = RingElem(0, 0, D)
            return SimpleNamespace(coeffs=coeffs)

        monkeypatch.setattr(qseries, "eta_series", zero_at_two)
        code, out, _ = run_cli(capsys, "growth", "--D", "5", "--N", "4")
        assert code == 0
        assert "# excluded zero coefficients at N = [2]" in out.splitlines()
        assert len(out.splitlines()) == 6  # fit line, excluded line, header, three rows
        code, out, _ = run_cli(capsys, "growth", "--D", "5", "--N", "4", "--format", "json")
        assert code == 0
        assert '"excluded_zero": [2]' in out
        assert len(json.loads(out)["pairs"]) == 3

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

    def test_rows_past_the_float_range(self, capsys, monkeypatch):
        """At D = 1000001, |a(N)| first passes the largest float at N = 449.
        Those rows' logs are mpmath's log of embed_midpoint's n / 2^k, and
        are the lines the Decimal.ln route printed."""
        series = []

        def keep(D, N, eta_series=qseries.eta_series):
            series.append(eta_series(D, N))
            return series[-1]

        monkeypatch.setattr(qseries, "eta_series", keep)
        code, out, _ = run_cli(capsys, "growth", "--D", "1000001", "--N", "460", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert float(lines[-13].split(",")[1]) < math.log(sys.float_info.max)  # N = 448
        rows = lines[-12:]
        assert rows == GROWTH_ROWS_PAST_FLOAT_RANGE
        with mpmath.workdps(80):
            for n, row in enumerate(rows, start=449):
                c = series[0].coeffs[n]
                assert math.isinf(embed_real(c))
                num, k = embed_midpoint(c)
                assert float(row.split(",")[1]) == float(mpmath.log(abs(num)) - k * mpmath.log(2))


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
            # the Re axis overflows to inf and nan between finite bounds
            ("--re-min=1e308", "--re-max=-1e308", "--im-min", "0.5", "--im-max", "1"),
            # Im(-1/z) underflows to 0
            ("--re-min", "1e308", "--re-max", "1e308", "--im-min", "0.5", "--im-max", "1"),
            # |q| rounds to 1 at z, then at -1/z
            ("--re-min", "0", "--re-max", "0", "--im-min", "1e-300", "--im-max", "1e-300"),
            # ... and Im(-1/z) overflows to inf
            ("--re-min", "0", "--re-max", "0", "--im-min", "1e-310", "--im-max", "1e-310"),
            ("--re-min=-6", "--re-max=-6", "--im-min", "1e-300", "--im-max", "1e-300"),
            ("--re-min", "0", "--re-max", "0", "--im-min", "1e-17", "--im-max", "1e-17"),
            ("--re-min", "0", "--re-max", "0", "--im-min", "1e200", "--im-max", "1e200"),
        ],
    )
    def test_bad_bounds_are_a_usage_error(self, capsys, bounds):
        """An Im bound at or below 0 or a bound that is not finite, by the
        option's range; an axis value that is not finite, or a point, z or
        -1/z, at which |q| rounds to 1, by grid: all in one error line, before
        any row is printed."""
        code, out, err = run_cli(
            capsys, "grid", "--D", "5", *bounds, "--re-steps", "1", "--im-steps", "2",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

def _readme_examples():
    """(command line, comment) of each hecke-eta line of README's CLI block,
    without its output redirection."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.partition("#") for line in block.splitlines() if line.startswith("hecke-eta ")]
    return [(line.split(">")[0].split()[1:], comment.strip()) for line, _, comment in lines]


README_EXAMPLES = _readme_examples()


class TestReadme:
    @pytest.mark.parametrize(
        "argv, comment", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
    )
    def test_cli_example_runs(self, capsys, argv, comment):
        """Exit 0 and output; a comment that shows a JSON record shows how its
        output begins."""
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out
        if comment.startswith("{"):
            assert out.startswith(comment.split("...")[0])

    def test_every_command_has_an_example(self):
        assert {argv[0] for argv, _ in README_EXAMPLES} == set(cli.COMMANDS)


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

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize(
        "entry",
        [
            ["-m", "hecke_eta.cli"],
            ["-c", "import sys; from hecke_eta.cli import main; sys.exit(main())"],
        ],
        ids=["module", "console-script"],
    )
    def test_closed_stdout_exits_quietly(self, entry, unbuffered):
        """A reader that closes the pipe after one line (| head -1) ends the
        run with STDOUT_CLOSED and nothing on stderr: no BrokenPipeError
        traceback, and not exit 1, the code of a verification failure.  The
        rows (about 200 kB) overfill the pipe, so a write meets the closed end."""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        env["PYTHONUNBUFFERED"] = unbuffered
        argv = [sys.executable, *entry, "coeffs", "--D", "5", "--N", "3000"]
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        with subprocess.Popen(argv, env=env, **pipes) as proc:
            assert proc.stdout.readline() == b"D,N,num_a,num_b,real\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == cli.STDOUT_CLOSED == 141
        assert err == b""


class _CountingRaw(io.RawIOBase):
    """A raw stream that keeps each write it is given, one system call each
    on a real file."""

    def __init__(self):
        self.parts = []

    def writable(self):
        return True

    def write(self, data):
        self.parts.append(bytes(data))
        return len(data)


class _UnbufferedStdout(io.TextIOWrapper):
    """stdout as PYTHONUNBUFFERED makes it, a TextIOWrapper with write_through
    over the raw stream, that also keeps the length of the longest string
    written to it."""

    def __init__(self):
        super().__init__(_CountingRaw(), encoding="utf-8", write_through=True)
        self.longest = 0

    def write(self, text):
        self.longest = max(self.longest, len(text))
        return super().write(text)


CHUNK = 8192  # the bytes a TextIOWrapper gathers before it writes them on


# Every command that prints rows, all but verify-table with more than a
# CHUNK of them.
ROW_COMMANDS = [
    ("coeffs", "--D", "5", "--N", "600"),
    ("coeffs", "--D", "13", "--N", "300", "--format", "json"),
    ("delta5", "--N", "300"),
    ("delta5", "--N", "300", "--format", "json"),
    ("growth", "--D", "5", "--N", "600", "--format", "csv"),
    ("verify-modularity", "--D", "5", "--samples", "300", "--nmax", "50"),
    ("grid", "--re-steps", "20", "--im-steps", "15", "--nmax", "50"),
    ("verify-table",),
    ("partitions", "--D", "5", "--N", "300"),
]


class TestRowOutput:
    """Rows go through stdout's own buffer, which main turns on, with the
    same bytes as one print per row."""

    @pytest.mark.parametrize("argv", ROW_COMMANDS, ids=lambda argv: " ".join(argv))
    def test_stdout_is_the_same_buffered_and_unbuffered(self, argv):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        outs = []
        for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
            proc = subprocess.run(
                [sys.executable, "-m", "hecke_eta.cli", *argv],
                capture_output=True,
                env={**env, **extra},
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_coeffs_makes_few_raw_writes(self, monkeypatch):
        """main turns on stdout's own buffer, so the rows reach an unbuffered
        stdout in chunks of CHUNK bytes, not one write a row."""
        out = _UnbufferedStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["coeffs", "--D", "5", "--N", "2000"]) == 0
        data = b"".join(out.buffer.parts)
        rows = 2001  # the header and a(1..2000)
        assert data.count(b"\n") == rows and data.endswith(b"\n")
        assert len(out.buffer.parts) <= -(-len(data) // CHUNK) + 2

    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 600])
    def test_rows_joined_as_printed(self, monkeypatch, count):
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        rows = [str(i) for i in range(count)]
        cli._write_rows(iter(rows))
        assert out.getvalue() == "".join(row + "\n" for row in rows)

    def test_partitions_raw_writes_stay_small(self, monkeypatch):
        """cli writes the table a row at a time (the longest row holds 10082
        characters; a block of rows held 67437), and no raw write holds more
        than a chunk besides the longest string cli wrote."""
        out = _UnbufferedStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["partitions", "--D", "101", "--N", "400"]) == 0
        sizes = list(map(len, out.buffer.parts))
        assert sum(sizes) > 50 * CHUNK
        assert out.longest < 2 * CHUNK
        assert max(sizes) <= CHUNK + out.longest
        assert len(sizes) <= 2 * -(-sum(sizes) // CHUNK) + 2

    @pytest.mark.parametrize(
        "argv, buffered",
        [
            (["chars", "--D", "13"], True),
            (["verify-modularity", "--D", "5", "--samples", "9999999"], True),
            (["coeffs", "--D", "5"], False),
            (["coeffs", "--D", "9", "--N", "3"], False),
            (["coeffs", "--help"], False),
        ],
        ids=["command", "command-refusal", "parse-error", "not-fundamental", "help"],
    )
    def test_stdout_buffered_on_the_command_path_only(self, monkeypatch, argv, buffered):
        """A command turns on stdout's own buffer before it runs; help and
        the usage errors main finds leave stdout as it was."""
        out = _UnbufferedStdout()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        with pytest.raises(SystemExit) if "--help" in argv else nullcontext():
            cli.main(argv)
        assert out.write_through is not buffered
        assert not out.line_buffering


def _fields(args):
    """A namespace's attributes by repr, so that nan equals nan and 5 differs
    from 5.0."""
    return {name: repr(value) for name, value in vars(args).items()}


# Option values: ints, floats as repr spells them (nan, inf, 1e-05, ...), the
# choices of --format and one that is not, negative values and text that no
# type converts.
VALUES = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "1e-3", "-1e-3", "csv", "json", "xml", "", "five", "5.0", " 7", "1_0"]),
)


def _valid_values(keywords):
    """Values that an option with these add_argument keywords accepts, so
    that more drawn command lines are canonical; none for an unknown flag."""
    if keywords is None:
        return st.nothing()
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if isinstance(keywords["type"]("7"), int):  # int, or a range of ints
        return st.integers(1, 10**6).map(str)
    return st.floats(min_value=0, exclude_min=True, allow_infinity=False).map(repr)


class TestCanonicalParse:
    """cli._parse reads every command line from cli.COMMANDS as the argparse
    parser built from the same table reads it with each value attached to
    its flag (--flag=value), and refuses each line that parser refuses,
    with cli's own one-line error; only help builds that parser."""

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_direct_parse_matches_argparse(self, data):
        command = data.draw(st.sampled_from(sorted(cli.COMMANDS)))
        options = cli.COMMANDS[command][2]
        if data.draw(st.booleans()):  # the required options and some others, in any order
            flags = [f for f, kw in options.items() if kw.get("required") or data.draw(st.booleans())]
            chosen = data.draw(st.permutations(flags))
        else:  # any flags, with repeats, omissions and an unknown one
            chosen = data.draw(st.lists(st.sampled_from([*options, "--bogus"]), max_size=4))
        argv = [command]
        attached = [command]
        for flag in chosen:
            valid = _valid_values(options.get(flag))
            value = data.draw(st.one_of(valid, valid, valid, VALUES))  # mostly valid
            # in full or cut to a prefix, the longer ones most often, which may
            # be ambiguous; then its value or =value
            cut = st.integers(max(3, len(flag) - 2), len(flag)) | st.integers(3, len(flag))
            spelled = flag[:data.draw(cut)]
            attached.append(f"{spelled}={value}")
            argv += data.draw(st.sampled_from([[spelled, value], attached[-1:]]))
        args = cli._parse(argv)
        try:
            expected = cli._build_parser().parse_args(attached)
        except SystemExit as exit_usage:
            assert exit_usage.code == 2
            assert isinstance(args, str)
        else:
            assert _fields(args) == _fields(expected)

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    @pytest.mark.parametrize("optional", [False, True])
    def test_canonical_line_is_read_directly(self, command, optional):
        argv = [command]
        for flag, keywords in cli.COMMANDS[command][2].items():
            if optional or keywords.get("required"):
                argv += [flag, keywords["choices"][-1] if "choices" in keywords else "7"]
        args = cli._parse(argv)
        assert not isinstance(args, str)
        assert _fields(args) == _fields(cli._build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--D", "5", "--N", "3", "--form", "json"],
            ["coeffs", "--D=5", "--N", "3", "--format", "json"],
            ["coeffs", "--D", "5", "--N", "3", "--format", "csv", "--format", "json"],
        ],
    )
    def test_non_canonical_line_runs_through_argparse(self, capsys, monkeypatch, argv):
        """An abbreviated flag, --flag=value and a repeated flag (the last
        value counts): _parse reads each line as argparse, run here as the
        reference, does, and main runs it without building a parser and
        prints what its canonical spelling prints."""
        assert _fields(cli._parse(argv)) == _fields(cli._build_parser().parse_args(argv))
        monkeypatch.setattr(cli, "_build_parser", None)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert run_cli(capsys, "coeffs", "--D", "5", "--N", "3", "--format", "json") == (0, out, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--D", "5", "--N", "3", "--format", "xml"],
            ["coeffs", "--D", "five", "--N", "3"],
            ["coeffs", "--D", "5", "--N", "3", "--format"],
            ["coeffs", "--D", "5"],
            ["coeffs", "--D", "5", "--N", "3", "--bogus", "1"],
            ["nope", "--D", "5"],
        ],
    )
    def test_usage_error_is_left_to_argparse(self, capsys, monkeypatch, argv):
        """Each line that argparse, run here as the reference, refuses with
        exit 2 is refused by _parse, and main reports it as it reports its
        own refusals: one error line, exit 2 and empty stdout, without
        building a parser."""
        with pytest.raises(SystemExit) as exit_usage:
            cli._build_parser().parse_args(argv)
        assert exit_usage.value.code == 2
        capsys.readouterr()
        monkeypatch.setattr(cli, "_build_parser", None)
        message = cli._parse(argv)
        assert isinstance(message, str)
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
        assert "\n" not in message

    def test_negative_value_is_read_directly(self, capsys):
        """-1e-3, which argparse alone takes for an option, is read as the
        value of the flag before it, in full or abbreviated, as argparse
        reads --re-min=-1e-3; -inf and -nan are values too, outside
        --re-min's range."""
        for text in ("-1e-3", "-0.001"):
            for flag in ("--re-min", "--re-mi"):
                assert cli._parse(["grid", flag, text]).re_min == -1e-3
        assert cli._build_parser().parse_args(["grid", "--re-min=-1e-3"]).re_min == -1e-3
        rest = ("--re-max", "1e-3", "--re-steps", "2", "--im-steps", "1")
        runs = [run_cli(capsys, "grid", flag, "-1e-3", *rest) for flag in ("--re-min", "--re-mi")]
        assert runs[0] == runs[1]
        code, out, _ = runs[0]
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()] == ["re", "-0.001", "0.001"]
        for text in ("-inf", "-nan"):
            code, out, err = run_cli(capsys, "grid", "--re-min", text)
            assert (code, out) == (2, "")
            assert err == (
                "error: argument --re-min: invalid float in "
                f"[-1.7976931348623157e+308, 1.7976931348623157e+308] value: '{text}'\n"
            )

    def test_help_and_empty_argv_exit_as_argparse(self, capsys):
        """A help flag, in full or abbreviated and anywhere in the line, prints
        argparse's help and exits 0; no command is a usage error, exit 2."""
        usage = "usage: hecke-eta coeffs [-h] --D D --N N [--format {csv,json}]\n"
        for argv in (["coeffs", "-h"], ["coeffs", "--he"], ["coeffs", "--D", "5", "--help"]):
            with pytest.raises(SystemExit) as exit_help:
                cli.main(argv)
            assert exit_help.value.code == 0
            assert capsys.readouterr().out.startswith(usage)
        with pytest.raises(SystemExit) as exit_help:
            cli.main(["--help"])
        assert exit_help.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hecke-eta [-h]")
        commands = ", ".join(cli.COMMANDS)
        assert run_cli(capsys) == (2, "", f"error: no command: choose from {commands}\n")
        assert run_cli(capsys, "nope") == (
            2, "", f"error: invalid command 'nope': choose from {commands}\n"
        )
