"""Command-line surface: formats, exit codes, round-trips.

Claims covered:
    - compute/table/ladder emit stable plain, csv, and json shapes
    - the csv header is identical across all record-emitting commands
    - json records round-trip: A recomputed from N and S equals A_exact
    - decimal renderings honor --precision with banker's rounding
    - verify exits 0 on clean scopes, 1 on mismatch, 2 on usage errors,
      and any other exception exits 3
    - integers past CPython's 4300-digit str guard print in full
    - table rows equal the per-cell evaluation
    - ladder rows equal the closed-form average and density
    - charpoly computes the characteristic polynomial once and takes no
      rendering options; verify takes --precision but not --format
    - the oracle cap flows through flags and the environment variable
"""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from consets import aggregate, cli, ladder, recurrence
from consets.cli import CSV_HEADER, format_decimal, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- rendering -----------------------------------------------------------------

def test_format_decimal_significant_digits():
    assert format_decimal(Fraction(54, 17), 12) == "3.17647058824"
    assert format_decimal(Fraction(54, 17), 5) == "3.1765"
    assert format_decimal(Fraction(2), 12) == "2"
    assert format_decimal(Fraction(1, 6000), 12) == "0.000166666666667"


def test_format_decimal_round_half_even():
    assert format_decimal(Fraction(5, 4), 2) == "1.2"
    assert format_decimal(Fraction(7, 4), 2) == "1.8"


# -- compute -------------------------------------------------------------------

def test_compute_plain(capsys):
    code, out, _ = run_cli(capsys, "compute", "--m", "3", "--n", "2")
    assert code == 0
    assert out.strip() == ("m=3 n=2: N=51 S=162 A=54/17 (~3.17647058824) "
                           "D=9/17 (~0.529411764706)")


def test_compute_degenerate_cells(capsys):
    code, out, _ = run_cli(capsys, "compute", "--m", "1", "--n", "4")
    assert code == 0
    assert "N=10" in out and "A=2 " in out
    code, out, _ = run_cli(capsys, "compute", "--m", "2", "--n", "1")
    assert code == 0
    assert "N=3" in out and "A=4/3" in out


def test_compute_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "compute", "--m", "3", "--n", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["N"] == "51" and record["S"] == "162"
    assert Fraction(record["A_exact"]) == Fraction(int(record["S"]), int(record["N"]))
    assert Fraction(record["D_exact"]) == Fraction(record["A_exact"]) / 6


def test_compute_rejects_bad_arguments(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "--m", "0", "--n", "2"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "--m", "2"])
    assert excinfo.value.code == 2


# -- table ---------------------------------------------------------------------

def test_table_csv_values(capsys):
    code, out, _ = run_cli(capsys, "table", "--m", "2", "--n-max", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "2,1,3,4,4,3,1.33333333333,2,3,0.666666666667"
    assert [line.split(",")[2] for line in lines[1:]] == ["3", "13", "40"]


def test_table_rows_equal_evaluate(capsys):
    code, out, _ = run_cli(capsys, "table", "--m", "4", "--n-max", "40", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 40
    for n, record in enumerate(records, start=1):
        result = aggregate.evaluate(4, n)
        assert record["n"] == n
        assert (int(record["N"]), int(record["S"])) == (result.count, result.total)
        assert Fraction(record["A_exact"]) == result.average
        assert Fraction(record["D_exact"]) == result.density


def test_table_trivial_column(capsys):
    code, out, _ = run_cli(capsys, "table", "--m", "1", "--n-max", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == ["1", "3"]


def test_table_json_is_array(capsys):
    code, out, _ = run_cli(capsys, "table", "--m", "4", "--n-max", "2", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert isinstance(records, list) and len(records) == 2
    for record in records:
        assert Fraction(record["A_exact"]) == Fraction(int(record["S"]), int(record["N"]))


def test_csv_header_stable_across_commands(capsys):
    for argv in (["compute", "--m", "2", "--n", "2", "--format", "csv"],
                 ["table", "--m", "2", "--n-max", "2", "--format", "csv"],
                 ["ladder", "--n", "2", "--format", "csv"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == CSV_HEADER
    assert CSV_HEADER == "m,n,N,S,A_num,A_den,A_dec,D_num,D_den,D_dec"


# -- charpoly ------------------------------------------------------------------

def test_charpoly_printout(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--m", "2")
    assert code == 0
    assert "λ^2 - 2λ - 1" in out
    code, out, _ = run_cli(capsys, "charpoly", "--m", "1")
    assert code == 0
    assert "m=1: λ - 1" in out
    code, out, _ = run_cli(capsys, "charpoly", "--m", "3")
    assert code == 0
    assert "λ^3 - 5λ^2 - 3λ + 1" in out
    assert "all 4 checks passed" in out


def test_charpoly_computes_polynomial_once(monkeypatch, capsys):
    calls = []
    original = cli.char_poly

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(cli, "char_poly", counted)
    monkeypatch.setattr(recurrence, "char_poly", counted)
    code, out, _ = run_cli(capsys, "charpoly", "--m", "6")
    assert len(calls) == 1
    assert code == 1
    assert out == (
        "m=6: λ^6 - 51λ^5 - 207λ^4 + 248λ^3 + 103λ^2 - 13λ - 1\n"
        "PASS  charpoly top coefficient  [m=6]\n"
        "FAIL  charpoly constant term  [m=6]: got -1, expected 1\n"
        "PASS  matrix trace identity  [m=6]\n"
        "PASS  determinant sign identity  [m=6]\n"
        "1 of 4 checks FAILED\n")


def test_charpoly_and_verify_refuse_unread_options(capsys):
    for argv in (["charpoly", "--m", "3", "--format", "csv"],
                 ["charpoly", "--m", "3", "--precision", "5"],
                 ["verify", "--format", "json"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv
    capsys.readouterr()


def test_charpoly_reports_false_claim(capsys):
    # the claimed unit constant term is false at m=5; exit must be honest
    code, out, _ = run_cli(capsys, "charpoly", "--m", "5")
    assert code == 1
    assert "FAIL  charpoly constant term" in out


# -- ladder --------------------------------------------------------------------

def test_ladder_matches_compute(capsys):
    _, ladder_out, _ = run_cli(capsys, "ladder", "--n", "2")
    _, compute_out, _ = run_cli(capsys, "compute", "--m", "2", "--n", "2")
    assert ladder_out == compute_out


def test_ladder_table(capsys):
    code, out, _ = run_cli(capsys, "ladder", "--n-max", "3", "--format", "csv")
    assert code == 0
    assert [line.split(",")[2] for line in out.strip().splitlines()[1:]] == ["3", "13", "40"]


def test_ladder_rows_equal_closed_forms(capsys):
    code, out, _ = run_cli(capsys, "ladder", "--n-max", "300", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 300
    for n, row in enumerate(rows, start=1):
        average, density = ladder.ladder_average(n), ladder.ladder_density(n)
        assert row == ",".join(str(field) for field in (
            2, n, ladder.ladder_count(n), ladder.ladder_total_order(n),
            average.numerator, average.denominator, format_decimal(average),
            density.numerator, density.denominator, format_decimal(density)))


def test_ladder_requires_scope(capsys):
    code, _, err = run_cli(capsys, "ladder")
    assert code == 2
    assert "needs --n or --n-max" in err


# -- verify --------------------------------------------------------------------

def test_verify_single_cell(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "3", "--n", "2")
    assert code == 0
    assert "census-vs-formula count" in out
    assert "all 4 checks passed" in out


def test_verify_cell_needs_both_coordinates(capsys):
    code, _, err = run_cli(capsys, "verify", "--m", "3")
    assert code == 2
    assert "both --m and --n" in err


def test_verify_m_max_needs_charpoly(capsys):
    code, out, err = run_cli(capsys, "verify", "--m-max", "3")
    assert code == 2
    assert out == ""
    assert "--m-max applies only with --charpoly" in err


def test_verify_n_max_needs_ladder(capsys):
    code, out, err = run_cli(capsys, "verify", "--n-max", "5")
    assert code == 2
    assert out == ""
    assert "--n-max applies only with --ladder" in err


def test_verify_ladder_scope(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ladder", "--n-max", "30")
    assert code == 0
    assert "ladder average vs published formula" in out


def test_verify_charpoly_scope_exits_by_truth(capsys):
    code, out, _ = run_cli(capsys, "verify", "--charpoly", "--m-max", "4")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--charpoly", "--m-max", "5")
    assert code == 1
    assert "FAIL  charpoly constant term  [m=5]" in out


def test_verify_graph_file(tmp_path, capsys):
    path = tmp_path / "square.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--graph", str(path))
    assert code == 0
    assert "N=13 S=28" in out
    assert "connectivity checkers agree" in out


def test_verify_missing_graph_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--graph", str(tmp_path / "missing.txt"))
    assert code == 2
    assert "error" in err


def test_verify_full_suite_reports_only_the_false_claim(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    failures = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failures == [
        "FAIL  charpoly constant term  [m=5]: got -1, expected 1",
        "FAIL  charpoly constant term  [m=6]: got -1, expected 1",
        "FAIL  charpoly constant term  [m=9]: got -1, expected 1",
        "FAIL  charpoly constant term  [m=10]: got -1, expected 1",
    ]


# -- caps ------------------------------------------------------------------------

def test_verify_oracle_cap_flag(capsys):
    code, _, err = run_cli(capsys, "verify", "--m", "4", "--n", "4", "--oracle-cap", "10")
    assert code == 2
    assert "enumeration cap" in err
    code, _, err = run_cli(capsys, "verify", "--m", "2", "--n", "2", "--oracle-cap", "99")
    assert code == 2


def test_verify_oracle_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("CONSETS_ORACLE_CAP", "5")
    code, _, err = run_cli(capsys, "verify", "--m", "3", "--n", "2")
    assert code == 2
    assert "CONSETS_ORACLE_CAP" in err
    # explicit flag wins over the environment
    code, out, _ = run_cli(capsys, "verify", "--m", "3", "--n", "2", "--oracle-cap", "10")
    assert code == 0


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(m, n):
        raise ArithmeticError("inexact step")

    monkeypatch.setattr(aggregate, "evaluate", broken)
    code, out, err = run_cli(capsys, "compute", "--m", "3", "--n", "2")
    assert code == 3
    assert out == ""
    assert err == "internal error: ArithmeticError: inexact step\n"


# -- integers past the int-to-str guard ----------------------------------------

@pytest.fixture
def unlimited_digits():
    """Lift the int-to-str digit limit in this process for the round trip."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def _parse_plain(out: str) -> tuple[int, int, Fraction, Fraction]:
    match = re.fullmatch(r"m=6 n=3000: N=(\d+) S=(\d+) A=(\d+/\d+) \(~[\d.]+\) "
                         r"D=(\d+/\d+) \(~[\d.]+\)\n", out)
    assert match is not None
    return int(match[1]), int(match[2]), Fraction(match[3]), Fraction(match[4])


def _parse_csv(out: str) -> tuple[int, int, Fraction, Fraction]:
    header, row = out.splitlines()
    assert header == CSV_HEADER
    m, n, count, total, a_num, a_den, _, d_num, d_den, _ = row.split(",")
    assert (m, n) == ("6", "3000")
    return (int(count), int(total), Fraction(int(a_num), int(a_den)),
            Fraction(int(d_num), int(d_den)))


def _parse_json(out: str) -> tuple[int, int, Fraction, Fraction]:
    record = json.loads(out)
    assert (record["m"], record["n"]) == (6, 3000)
    return (int(record["N"]), int(record["S"]), Fraction(record["A_exact"]),
            Fraction(record["D_exact"]))


@pytest.mark.parametrize("fmt, parse", [("plain", _parse_plain), ("csv", _parse_csv),
                                        ("json", _parse_json)])
def test_compute_prints_integers_past_the_digit_guard(fmt, parse, unlimited_digits):
    # the guard is process-wide, so only a fresh process shows the CLI lifting it
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    completed = subprocess.run(
        [sys.executable, "-m", "consets.cli", "compute", "--m", "6", "--n", "3000",
         "--format", fmt], capture_output=True, text=True, env=env)
    assert completed.returncode == 0, completed.stderr
    result = aggregate.evaluate(6, 3000)
    assert len(str(result.count)) > 4300
    assert parse(completed.stdout) == (result.count, result.total,
                                       result.average, result.density)


def test_precision_flag(capsys):
    code, out, _ = run_cli(capsys, "compute", "--m", "3", "--n", "2",
                           "--precision", "5")
    assert code == 0
    assert "A=54/17 (~3.1765)" in out
