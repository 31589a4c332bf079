"""Command-line surface: formats, exit codes, round-trips.

Claims covered:
    - compute/table/ladder emit stable plain, csv, and json shapes
    - the csv header is identical across all record-emitting commands
    - json records round-trip: A recomputed from N and S equals A_exact
    - json output, which the CLI writes without the json module, is byte
      for byte json.dumps(..., indent=2) of the same rows, for compute at
      streamed and jumped cells of m = 1..13, ladder --n, table and ladder
      --n-max, at precisions 1, 12 and 40, and json.loads returns the rows
    - decimal renderings honor --precision with banker's rounding, and equal
      the decimal module's rendering (kept here as the reference) for any
      fraction
    - the divide-and-conquer conversion to Decimal equals str() at its
      split points and for random integers of either sign, one at a time
      or all at once
    - rows come out the same whatever the caller's decimal context is; a
      rounding inside the exact context exits 3; a Decimal twin that
      disagrees with the int walk stops the table before that row; the
      rounding context that one precision's rows share never goes stale:
      rows rendered at precisions 12, 30 and 12 in turn, under any
      caller context, equal what a fresh process prints
    - table and ladder output is byte-for-byte the reference rendering of
      the stream
    - every field of every csv, json and plain table row for m = 1..8,
      n <= 4m+8, and ladder row up to n = 200 equals its reference from
      Fraction(S, N), Fraction(S, N·mn) and format_decimal, over rows
      with gcd(S, N) = 1 and > 1 and with gcd(A_num, mn) = 1 and > 1
    - table and ladder stream their rows: memory does not grow with n_max
    - a reader closing the pipe ends the CLI quietly with exit 141
    - verify exits 0 on clean scopes, 1 on mismatch, 2 on usage errors,
      and any other exception exits 3; an uncertified p stops the full
      battery with exit 3, not 1; --ladder and --charpoly print the
      battery's lines for their suites, unless --n-max or --m-max is given
    - text that is not an integer is a usage error naming the flag
    - integers past CPython's 4300-digit str guard print in full; main
      lifts the guard for its call, so a check's detail past it prints
    - table rows equal the per-cell evaluation, and each compute csv row
      equals the table's row through n = 4m+6, past the jump
    - ladder rows come from the engine at m = 2 and equal the closed-form
      rows, average and density; they pass the same result checks as
      table rows; exactly one of --n and --n-max is required
    - verify --graph refuses a graph past the cap before allocating it
    - charpoly computes the characteristic polynomial once, from the
      streamed totals and never by Faddeev-LeVerrier, and takes no
      rendering options; verify takes --precision but not --format
    - the census limit is the constant 26 vertices: verify --m --n and
      --graph take up to 26 with no flag and refuse 27 with one error line
      naming the limit; --oracle-cap is not an option and the environment
      is not read
    - --precision above MAX_PRECISION is refused with exit 2 before any work
    - verify --m --n and verify --graph print exactly the lines the
      benchmark's output checker parses
    - verify --m --n and the battery's grid run the connected-set
      enumerator and no 2^v census; verify --graph compares the two
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CHILD_ENV, run_child
from consets import aggregate, cli, exactmath, ladder, oracle, recurrence, reporting, verify
from consets.cli import CSV_HEADER, format_decimal, main
from consets.records import Check


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_decimal(value: Fraction, precision: int = cli.DEFAULT_PRECISION) -> str:
    """The decimal module's rendering, which format_decimal must reproduce."""
    with localcontext() as ctx:
        ctx.prec = precision
        ctx.rounding = ROUND_HALF_EVEN
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return format(quotient, "f")


# -- rendering -----------------------------------------------------------------

def test_format_decimal_significant_digits():
    assert format_decimal(Fraction(54, 17), 12) == "3.17647058824"
    assert format_decimal(Fraction(54, 17), 5) == "3.1765"
    assert format_decimal(Fraction(2), 12) == "2"
    assert format_decimal(Fraction(3, 2), 12) == "1.5"
    assert format_decimal(Fraction(10 ** 15), 12) == "1000000000000000"
    assert format_decimal(Fraction(1, 6000), 12) == "0.000166666666667"
    assert format_decimal(Fraction(0), 12) == "0"
    assert format_decimal(Fraction(-54, 17), 5) == "-3.1765"
    assert format_decimal(Fraction(99999, 10000), 3) == "10.0"


def test_format_decimal_round_half_even():
    assert format_decimal(Fraction(5, 4), 2) == "1.2"
    assert format_decimal(Fraction(7, 4), 2) == "1.8"


def test_format_decimal_strips_exact_zeros_in_one_step(unlimited_digits):
    # An exact value's trailing zeros go in one step, not one digit at a time.
    start = time.perf_counter()
    assert format_decimal(Fraction(1), 100000) == "1"
    assert format_decimal(Fraction(3, 2), 100000) == "1.5"
    assert time.perf_counter() - start < 3


def test_format_decimal_rejects_zero_precision():
    with pytest.raises(ValueError, match="precision"):
        format_decimal(Fraction(1, 3), 0)


#: Integers of up to about 5000 digits, either sign.
_BIG = st.integers(min_value=0, max_value=5000).flatmap(
    lambda digits: st.integers(min_value=-10 ** digits, max_value=10 ** digits))


@settings(max_examples=300, deadline=None)
@given(numerator=_BIG, denominator=_BIG.filter(bool), precision=st.integers(1, 40))
@example(numerator=0, denominator=7, precision=1)
@example(numerator=-1, denominator=3, precision=40)
@example(numerator=10 ** 4999, denominator=1, precision=12)
def test_format_decimal_matches_decimal(numerator, denominator, precision):
    value = Fraction(numerator, denominator)
    assert format_decimal(value, precision) == reference_decimal(value, precision)


@st.composite
def _half_ties(draw):
    """(c + 1/2)·10^s with c of exactly `precision` digits: an exact tie."""
    precision = draw(st.integers(1, 40))
    coefficient = draw(st.integers(10 ** (precision - 1), 10 ** precision - 1))
    value = Fraction(2 * coefficient + 1, 2) * Fraction(10) ** draw(st.integers(-60, 60))
    return (-value if draw(st.booleans()) else value), precision


@settings(max_examples=300, deadline=None)
@given(_half_ties())
def test_format_decimal_half_ties_match_decimal(tie):
    value, precision = tie
    assert format_decimal(value, precision) == reference_decimal(value, precision)


@pytest.fixture
def default_digit_limit():
    """CPython's default int-to-str digit limit, whatever a test before set."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(limit)


def test_format_decimal_past_the_digit_guard(default_digit_limit):
    big = 3 ** 10000 + 1  # 4772 digits: str() of it raises under the limit
    with pytest.raises(ValueError):
        str(big)
    for value in (Fraction(big, 7), Fraction(7, big), Fraction(-big, big + 2)):
        assert format_decimal(value, 20) == reference_decimal(value, 20)
    assert format_decimal(Fraction(10 ** 5000 + 1, 3), 12) == "3" * 12 + "0" * 4988


def _split_points() -> list[int]:
    """0, +-1 and 2^k +- 1 at the conversion's 1024-bit piece boundaries."""
    values = [0, 1, -1]
    for bits in (1024, 2048, 3072, 4096, 8192, 16384, 65536):
        values += [2 ** bits - 1, 2 ** bits, 2 ** bits + 1, -(2 ** bits) - 1]
    return values


def test_divide_and_conquer_conversion_equals_str(unlimited_digits):
    rng = random.Random(8191)
    sizes = [199_000, *(rng.randrange(1, 199_000) for _ in range(20))]  # up to 60k digits
    values = [*_split_points(), *(rng.choice((1, -1)) * rng.getrandbits(b) for b in sizes)]
    for value in values:
        (converted,) = cli._decimals(value)
        assert str(converted) == str(value)
    # at once, every value joined with the widest one's powers
    assert [str(converted) for converted in cli._decimals(*values)] == [str(v) for v in values]


def test_rendering_ignores_the_callers_decimal_context(capsys):
    argvs = [["compute", "--m", "6", "--n", "3000", "--format", "csv"],
             ["table", "--m", "4", "--n-max", "60", "--precision", "30"],
             ["ladder", "--n-max", "80", "--format", "json"]]
    expected = [run_cli(capsys, *argv) for argv in argvs]
    with localcontext(Context(prec=5, traps=[])):
        assert [run_cli(capsys, *argv) for argv in argvs] == expected
        row = cli.OutputRecord.from_result(aggregate.evaluate(6, 3000)).csv_row(12)
    assert row == expected[0][1].splitlines()[1]


@pytest.mark.parametrize("argv", [["table", "--m", "3", "--n-max", "10"],
                                  ["compute", "--m", "6", "--n", "3000"]])
def test_a_rounding_in_the_exact_context_exits_3(argv, monkeypatch, capsys):
    narrow = cli.EXACT.copy()
    narrow.prec = 5
    monkeypatch.setattr(cli, "EXACT", narrow)
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err == ("internal error: Inexact: "
                   "[<class 'decimal.Inexact'>, <class 'decimal.Rounded'>]\n")


def _printed_row(fmt: str, *argv: str) -> object:
    """The last row a fresh CLI process prints: a line, or a json object."""
    completed = run_child("-m", "consets.cli", *argv, "--format", fmt)
    assert completed.returncode == 0, completed.stderr
    if fmt != "json":
        return completed.stdout.splitlines()[-1]
    record = json.loads(completed.stdout)
    return record[-1] if isinstance(record, list) else record


def test_the_shared_rounding_context_follows_the_precision():
    # one rounding context serves every row at one precision; switching
    # 12 -> 30 -> 12 in one process, outside any decimal context and under
    # a narrow one, still renders each row as a fresh CLI process prints it
    cells = {(4, 60): ("table", "--m", "4", "--n-max", "60"),  # a streamed row
             (6, 3000): ("compute", "--m", "6", "--n", "3000")}  # a jumped cell
    methods = {"csv": "csv_row", "json": "json_object", "plain": "plain_line"}
    printed = {(cell, fmt, precision): _printed_row(fmt, *argv, "--precision", str(precision))
               for cell, argv in cells.items() for fmt in methods for precision in (12, 30)}
    records = {cell: cli.OutputRecord.from_result(aggregate.evaluate(*cell)) for cell in cells}
    for precision in (12, 30, 12):
        for context in (None, Context(prec=5, traps=[])):
            with localcontext(context) if context else contextlib.nullcontext():
                for (cell, record), (fmt, method) in itertools.product(records.items(),
                                                                       methods.items()):
                    rendered = getattr(record, method)(precision)
                    assert rendered == printed[cell, fmt, precision], (cell, fmt, precision)


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


def _json_rows(m: int, ns, precision: int) -> list[dict[str, object]]:
    return [cli.OutputRecord.from_result(aggregate.evaluate(m, n)).json_object(precision)
            for n in ns]


@pytest.mark.parametrize("m", range(1, 14))
def test_compute_json_is_the_text_json_dumps_prints(capsys, m):
    # the CLI writes its JSON without the json module; json.dumps is the
    # reference, at the last streamed cell, the first jumped one and a deep
    # one (m = 1 and 13 jump modulo Q, the m between them modulo p)
    for n in (4 * m + 4, 4 * m + 5, 40 * m):
        for precision in (1, 12, 40):
            code, out, _ = run_cli(capsys, "compute", "--m", str(m), "--n", str(n),
                                   "--format", "json", "--precision", str(precision))
            (row,) = _json_rows(m, [n], precision)
            assert code == 0
            assert out == json.dumps(row, indent=2) + "\n", (n, precision)
            assert json.loads(out) == row


@pytest.mark.parametrize("argv, m, ns, single", [
    (["ladder", "--n", "13"], 2, [13], True),
    (["table", "--m", "5", "--n-max", "30"], 5, range(1, 31), False),
    (["table", "--m", "1", "--n-max", "1"], 1, [1], False),
    (["ladder", "--n-max", "30"], 2, range(1, 31), False),
], ids=["ladder-n", "table", "table-one-row", "ladder-n-max"])
def test_json_rows_are_the_text_json_dumps_prints(capsys, argv, m, ns, single):
    for precision in (1, 12, 40):
        code, out, _ = run_cli(capsys, *argv, "--format", "json", "--precision", str(precision))
        rows = _json_rows(m, ns, precision)
        expected = rows[0] if single else rows
        assert code == 0
        assert out == json.dumps(expected, indent=2) + "\n", precision
        assert json.loads(out) == expected


def test_no_json_rows_are_an_empty_array(capsys):
    cli.emit_records([], "json", cli.DEFAULT_PRECISION, single=False)
    assert capsys.readouterr().out == json.dumps([], indent=2) + "\n"


def test_compute_rejects_bad_arguments(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "--m", "0", "--n", "2"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "--m", "2"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["compute", "--m", "2.5", "--n", "3"], "--m"),
    (["table", "--m", "2", "--n-max", "x"], "--n-max"),
    (["ladder", "--n", "1e3"], "--n"),
    (["compute", "--m", "2", "--n", "3", "--precision", "abc"], "--precision"),
], ids=["compute-m", "table-n-max", "ladder-n", "precision"])
def test_non_integer_text_is_a_usage_error(argv, flag, capsys):
    # the message names the flag, not the parser's private helper
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be an integer" in err
    assert "_positive_int" not in err and "_precision" not in err


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


def test_table_rows_pass_the_result_invariants(monkeypatch, capsys):
    # An engine yielding an out-of-range cell stops the table at that row
    # with an internal error: the fault is the engine's, not the caller's.
    monkeypatch.setattr(aggregate, "cell_stream",
                        lambda m, one=1: iter([(one, one), (one, 5 * one)]))
    code, out, err = run_cli(capsys, "table", "--m", "1", "--n-max", "2", "--format", "csv")
    assert code == 3
    assert out == f"{CSV_HEADER}\n1,1,1,1,1,1,1,1,1,1\n"
    assert err == "internal error: ArithmeticError: average outside [1, m*n]\n"


def _reference_table(m: int, n_max: int, fmt: str, precision: int) -> str:
    """table output as the Fraction and decimal-module rendering gives it."""
    lines, objects = [CSV_HEADER] if fmt == "csv" else [], []
    for n, (count, total) in zip(range(1, n_max + 1), aggregate.cell_stream(m)):
        average = Fraction(total, count)
        density = average / (m * n)
        a_dec, d_dec = reference_decimal(average, precision), reference_decimal(density, precision)
        if fmt == "csv":
            lines.append(",".join(str(field) for field in (
                m, n, count, total, average.numerator, average.denominator, a_dec,
                density.numerator, density.denominator, d_dec)))
        elif fmt == "plain":
            lines.append(f"m={m} n={n}: N={count} S={total} "
                         f"A={average} (~{a_dec}) D={density} (~{d_dec})")
        else:
            objects.append({"m": m, "n": n, "N": str(count), "S": str(total),
                            "A_exact": str(average), "A_decimal": a_dec,
                            "D_exact": str(density), "D_decimal": d_dec})
    if fmt == "json":
        lines.append(json.dumps(objects, indent=2))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["csv", "plain", "json"])
@pytest.mark.parametrize("m, n_max, precision",
                         [(1, 30, 12), (2, 400, 12), (3, 120, 12), (6, 60, 30), (8, 40, 1)])
def test_table_bytes_equal_reference_rendering(capsys, fmt, m, n_max, precision):
    code, out, _ = run_cli(capsys, "table", "--m", str(m), "--n-max", str(n_max),
                           "--format", fmt, "--precision", str(precision))
    assert code == 0
    assert out == _reference_table(m, n_max, fmt, precision)


@pytest.mark.parametrize("fmt", ["csv", "plain", "json"])
def test_ladder_table_bytes_equal_reference_rendering(capsys, fmt):
    code, out, _ = run_cli(capsys, "ladder", "--n-max", "400", "--format", fmt)
    assert code == 0
    assert out == _reference_table(2, 400, fmt, cli.DEFAULT_PRECISION)


@pytest.mark.parametrize("k", [1, 5])
def test_a_twin_that_disagrees_stops_the_table_at_its_row(monkeypatch, capsys, k):
    real = aggregate.cell_stream

    def corrupted(m, one=1):
        for row, (count, total) in enumerate(real(m, one), start=1):
            yield (count + 1 if row == k and isinstance(one, Decimal) else count), total

    monkeypatch.setattr(aggregate, "cell_stream", corrupted)
    code, out, err = run_cli(capsys, "table", "--m", "3", "--n-max", "8", "--format", "csv")
    assert code == 3
    assert out == _reference_table(3, k - 1, "csv", cli.DEFAULT_PRECISION)
    assert err == f"internal error: ArithmeticError: decimal twin differs at m=3 n={k}\n"


@pytest.mark.parametrize("argv", [["ladder", "--n-max", "3000"],
                                  ["table", "--m", "6", "--n-max", "600"]])
def test_rows_stream_in_flat_memory(argv):
    # Rows are printed as they arrive, so the peak is a few rows (about
    # 0.2 MB); holding every row takes 5.7 MB for this ladder and 1.2 MB
    # for this table.
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = main([*argv, "--format", "csv"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 ** 20


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


def test_charpoly_computes_polynomial_once(capsys, spy):
    # with checks, through validate_coefficients; m = 1, unchecked, in cli
    checked, unchecked = spy(recurrence, "layer_polynomial"), spy(cli, "layer_polynomial")
    matrix_side = spy(exactmath, "char_poly")
    code, out, _ = run_cli(capsys, "charpoly", "--m", "6")
    assert (checked, unchecked) == ([(6,)], [])
    assert matrix_side == []  # Faddeev-LeVerrier is never on this path
    assert code == 1
    assert out == (
        "m=6: λ^6 - 51λ^5 - 207λ^4 + 248λ^3 + 103λ^2 - 13λ - 1\n"
        "PASS  charpoly top coefficient  [m=6]\n"
        "FAIL  charpoly constant term  [m=6]: got -1, expected 1\n"
        "PASS  matrix trace identity  [m=6]\n"
        "PASS  determinant sign identity  [m=6]\n"
        "1 of 4 checks FAILED\n")
    code, out, _ = run_cli(capsys, "charpoly", "--m", "1")  # the unchecked branch
    assert (code, out.splitlines()[0]) == (0, "m=1: λ - 1")
    assert (checked, unchecked) == ([(6,)], [(1,)])
    assert matrix_side == []


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


@pytest.mark.parametrize("m", range(1, 9))
def test_compute_rows_equal_table_rows_across_the_jump(m, capsys):
    # compute streams up to n = 4m+4 and jumps from 4m+5 on, and renders
    # by divide and conquer; table walks the stream and its Decimal twin
    n_max = 4 * m + 6
    code, out, _ = run_cli(capsys, "table", "--m", str(m), "--n-max", str(n_max), "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == n_max
    for n, row in enumerate(rows, start=1):
        code, out, _ = run_cli(capsys, "compute", "--m", str(m), "--n", str(n), "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[1:] == [row], n


def test_ladder_table(capsys):
    code, out, _ = run_cli(capsys, "ladder", "--n-max", "3", "--format", "csv")
    assert code == 0
    assert [line.split(",")[2] for line in out.strip().splitlines()[1:]] == ["3", "13", "40"]


def test_ladder_rows_equal_closed_forms(capsys):
    # the engine's rows against the independent closed forms
    code, out, _ = run_cli(capsys, "ladder", "--n-max", "300", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 300
    for n, row, ((count, total), _) in zip(range(1, 301), rows, ladder.row_stream()):
        average = Fraction(total, count)
        density = average / (2 * n)
        assert row == ",".join(str(field) for field in (
            2, n, count, total,
            average.numerator, average.denominator, format_decimal(average),
            density.numerator, density.denominator, format_decimal(density)))


#: A plain row's fields, in json's order and under json's names.
PLAIN_ROW = re.compile(r"m=(\d+) n=(\d+): N=(\d+) S=(\d+) A=(\S+) \(~(\S+)\) D=(\S+) \(~(\S+)\)")
ROW_NAMES = ("m", "n", "N", "S", "A_exact", "A_decimal", "D_exact", "D_decimal")


def _printed_rows(fmt: str, out: str) -> list[dict[str, str]]:
    """Each printed row's fields as text, by csv's names for csv rows."""
    if fmt == "json":
        return [{name: str(value) for name, value in row.items()} for row in json.loads(out)]
    lines = out.splitlines()
    if fmt == "plain":
        return [dict(zip(ROW_NAMES, PLAIN_ROW.fullmatch(line).groups())) for line in lines]
    assert lines[0] == CSV_HEADER
    return [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines[1:]]


def _reference_row(fmt: str, m: int, n: int, count: int, total: int) -> dict[str, str]:
    """A row's fields from N and S alone: A = S/N and D = S/(N·mn) as
    fractions, rendered by format_decimal."""
    average, density = Fraction(total, count), Fraction(total, count * m * n)
    fields = {"m": m, "n": n, "N": count, "S": total}
    if fmt == "csv":
        fields.update(A_num=average.numerator, A_den=average.denominator,
                      A_dec=format_decimal(average), D_num=density.numerator,
                      D_den=density.denominator, D_dec=format_decimal(density))
    else:
        fields.update(A_exact=average, A_decimal=format_decimal(average),
                      D_exact=density, D_decimal=format_decimal(density))
    return {name: str(value) for name, value in fields.items()}


@pytest.mark.parametrize("fmt", ["csv", "json", "plain"])
def test_row_fields_equal_the_fractions_of_n_and_s(fmt, capsys):
    # Rows with g = gcd(S, N) = 1 and > 1, and with g2 = gcd(A_num, mn) = 1
    # and > 1.  The reference N and S come from evaluate, which jumps past
    # n = 4m+4, for the tables, and from the Pell closed forms for the ladder.
    runs = []
    for m in range(1, 9):
        results = [aggregate.evaluate(m, n) for n in range(1, 4 * m + 9)]
        runs.append((m, ["table", "--m", str(m), "--n-max", str(4 * m + 8)],
                     [(result.n, result.count, result.total) for result in results]))
    runs.append((2, ["ladder", "--n-max", "200"],
                 [(n, *cell) for n, (cell, _) in zip(range(1, 201), ladder.row_stream())]))
    for m, argv, cells in runs:
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        rows = _printed_rows(fmt, out)
        assert len(rows) == len(cells)
        seen = set()
        for row, (n, count, total) in zip(rows, cells):
            expected = _reference_row(fmt, m, n, count, total)
            for name, text in expected.items():
                assert row[name] == text, (argv, n, name)
            assert row.keys() == expected.keys()
            numerator = Fraction(total, count).numerator
            seen.add((numerator == total, math.gcd(numerator, m * n) == 1))
        assert {g for g, _ in seen} == {True, False} == {g2 for _, g2 in seen}, argv


def test_ladder_requires_scope(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["ladder"])
    assert excinfo.value.code == 2
    assert "one of the arguments --n --n-max is required" in capsys.readouterr().err


def test_ladder_scopes_are_exclusive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["ladder", "--n", "3", "--n-max", "5"])
    assert excinfo.value.code == 2
    assert "not allowed with argument --n" in capsys.readouterr().err


def test_ladder_rows_pass_the_result_invariants(monkeypatch, capsys):
    # An engine yielding an average above 2n stops the ladder at that row
    # with an internal error.
    monkeypatch.setattr(aggregate, "cell_stream",
                        lambda m, one=1: iter([(3 * one, 4 * one), (one, 5 * one)]))
    code, out, err = run_cli(capsys, "ladder", "--n-max", "2", "--format", "csv")
    assert code == 3
    assert out == f"{CSV_HEADER}\n2,1,3,4,4,3,1.33333333333,2,3,0.666666666667\n"
    assert err == "internal error: ArithmeticError: average outside [1, m*n]\n"


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


def test_verify_charpoly_m_max_starts_at_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--charpoly", "--m-max", "1")
    assert (code, out) == (2, "")
    assert err == "error: --m-max must be at least 2 for coefficient checks\n"


def test_verify_n_max_needs_ladder(capsys):
    code, out, err = run_cli(capsys, "verify", "--n-max", "5")
    assert code == 2
    assert out == ""
    assert "--n-max applies only with --ladder" in err


@pytest.fixture(scope="module")
def battery() -> tuple[int, list[str]]:
    """The exit code and the printed lines of the full battery, run once."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["verify"])
    return code, out.getvalue().splitlines()


def test_verify_ladder_scope(capsys, battery):
    # the battery's ladder suites, n = 1..200 and identities n = 1..100,
    # line for line; --n-max sets both horizons
    code, out, _ = run_cli(capsys, "verify", "--ladder")
    *lines, summary = out.splitlines()
    assert (code, summary) == (0, "all 15 checks passed")
    assert (lines[0], lines[-1]) == ("PASS  ladder count closed form  [n=1..200]",
                                     "PASS  square-weighted prefix sum of totals  [n=1..100]")
    start = battery[1].index(lines[0])
    assert battery[1][start:start + 15] == lines
    code, out, _ = run_cli(capsys, "verify", "--ladder", "--n-max", "30")
    assert code == 0
    assert "ladder average vs published formula" in out
    assert out.splitlines()[:-1] == [
        check.line() for check in verify.ladder_checks(30) + verify.ladder_identity_checks(30)]


def test_verify_charpoly_scope_exits_by_truth(capsys, battery):
    # the battery's charpoly suite, m = 2..10, line for line; --m-max sets m
    code, out, _ = run_cli(capsys, "verify", "--charpoly")
    *lines, summary = out.splitlines()
    assert (code, summary) == (1, "4 of 45 checks FAILED")
    assert lines[-1] == "PASS  charpoly routes agree  [m=10]"
    start = battery[1].index(lines[0])
    assert battery[1][start:start + 45] == lines
    code, out, _ = run_cli(capsys, "verify", "--charpoly", "--m-max", "4")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--charpoly", "--m-max", "5")
    assert code == 1
    assert "FAIL  charpoly constant term  [m=5]" in out
    assert out.splitlines()[:-1] == [check.line() for check in verify.charpoly_checks(5)]


def test_verify_graph_file(tmp_path, capsys):
    path = tmp_path / "square.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--graph", str(path))
    assert code == 0
    assert "N=13 S=28" in out
    assert "connectivity checkers agree" in out


def test_cell_checks_run_no_subset_census(capsys, refuse):
    refuse(oracle, "census")  # the 2^v census
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--n", "10")
    assert code == 0
    assert out.endswith("all 4 checks passed\n")
    assert all(check.ok for check in verify.oracle_grid_checks())


def test_verify_graph_compares_enumerator_with_census(tmp_path, monkeypatch, capsys):
    path = tmp_path / "square.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    monkeypatch.setattr(oracle, "enumerated_census",
                        lambda graph: oracle.CensusReport((4, 4, 4, 0)))
    code, out, _ = run_cli(capsys, "verify", "--graph", str(path))
    assert code == 1
    assert ("FAIL  connectivity checkers agree  [4 vertices, 4 edges]: "
            "enumerator (4, 4, 4, 0), flood (4, 4, 4, 1)") in out


def test_verify_precision_needs_graph(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", "--precision", "5")
    assert code == 2
    assert out == ""
    assert "--precision applies only with --graph" in err
    path = tmp_path / "square.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--graph", str(path), "--precision", "3")
    assert code == 0
    assert "A=28/13 (~2.15)" in out


def test_verify_missing_graph_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--graph", str(tmp_path / "missing.txt"))
    assert code == 2
    assert "error" in err


def test_verify_full_suite_reports_only_the_false_claim(battery):
    code, lines = battery
    assert code == 1
    failures = [line for line in lines if line.startswith("FAIL")]
    assert failures == [
        "FAIL  charpoly constant term  [m=5]: got -1, expected 1",
        "FAIL  charpoly constant term  [m=6]: got -1, expected 1",
        "FAIL  charpoly constant term  [m=9]: got -1, expected 1",
        "FAIL  charpoly constant term  [m=10]: got -1, expected 1",
    ]


def test_verify_exits_3_when_p_is_not_certified(monkeypatch, capsys):
    # Berlekamp-Massey is p's one route: without its certificate the
    # battery stops with an internal error, where a stand-in p would let
    # "charpoly routes agree" compare Faddeev-LeVerrier with itself
    monkeypatch.setattr(exactmath, "sequence_annihilator", lambda terms: None)
    code, out, err = run_cli(capsys, "verify")
    assert (code, out) == (3, "")
    assert err == "internal error: ArithmeticError: Berlekamp-Massey did not certify p of degree 1\n"


# -- caps ------------------------------------------------------------------------

def test_verify_oracle_cap_flag(tmp_path, capsys):
    # one limit, 26 vertices, and no flag to set another
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--m", "2", "--n", "2", "--oracle-cap", "4"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --oracle-cap 4" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--n", "13")
    assert code == 0
    assert out.endswith("all 4 checks passed\n")
    path = tmp_path / "path-23.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(22)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--graph", str(path))
    assert code == 0
    assert "N=276 S=2300" in out
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(26)), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--graph", str(path))
    assert (code, out) == (2, "")
    assert err == "error: graph has 27 vertices; enumeration cap is 26\n"


def test_verify_graph_refused_before_allocation(tmp_path, capsys):
    # Building this graph would size its adjacency by the largest id (about
    # 320 MB); the cap refuses it first.
    path = tmp_path / "sparse.txt"
    path.write_text("0 1\n1 20000000\n", encoding="utf-8")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "verify", "--graph", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "graph has 20000001 vertices; enumeration cap is 26" in err
    assert peak < 2 * 2 ** 20


def test_verify_oracle_cap_env(monkeypatch, capsys):
    # the limit is a constant; the environment neither lowers nor raises it
    monkeypatch.setenv("CONSETS_ORACLE_CAP", "5")
    code, _, _ = run_cli(capsys, "verify", "--m", "3", "--n", "2")
    assert code == 0
    monkeypatch.setenv("CONSETS_ORACLE_CAP", "30")
    code, _, err = run_cli(capsys, "verify", "--m", "1", "--n", "27")
    assert code == 2
    assert err == "error: graph has 27 vertices; enumeration cap is 26\n"


def test_closed_pipe_exits_141_quietly():
    with subprocess.Popen(
            [sys.executable, "-m", "consets.cli", "table", "--m", "3", "--n-max", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert first == b"m=3 n=1: N=7 S=12 A=12/7 (~1.71428571429) D=4/7 (~0.571428571429)\n"
    assert err == b""
    assert code == cli.CLOSED_PIPE == 141


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
    completed = run_child("-m", "consets.cli", "compute", "--m", "6", "--n", "3000",
                          "--format", fmt)
    assert completed.returncode == 0, completed.stderr
    result = aggregate.evaluate(6, 3000)
    assert len(str(result.count)) > 4300
    assert parse(completed.stdout) == (result.count, result.total,
                                       result.average, result.density)


def test_main_lifts_the_digit_guard_for_a_wide_detail(monkeypatch, capsys, default_digit_limit):
    # rows get their digits from libmpdec, which the guard does not bind;
    # a check's detail is str() of its integers, so a FAIL past 4300
    # digits prints only because main lifts the guard (else exit 2), and
    # main restores it when it returns
    wide = 3 ** 10000  # 4772 digits
    monkeypatch.setattr(reporting, "oracle_cell_checks", lambda m, n: [
        Check("census-vs-formula count", f"m={m} n={n}", False, f"formula 1, census {wide}")])
    code, out, err = run_cli(capsys, "verify", "--m", "1", "--n", "1")
    assert (code, err) == (1, "")
    assert out == (f"FAIL  census-vs-formula count  [m=1 n=1]: formula 1, census {Decimal(wide)}\n"
                   "1 of 1 checks FAILED\n")
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits


@pytest.mark.parametrize("argv", [["compute", "--m", "1", "--n", "3"],
                                  ["table", "--m", "1", "--n-max", "3"],
                                  ["ladder", "--n", "3"],
                                  ["verify", "--graph", "unread.txt"]])
def test_precision_above_the_limit_is_refused(argv, capsys, refuse):
    refuse(cli, "_decimals", "_rounding")  # no work starts before the refusal
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--precision", str(cli.MAX_PRECISION + 1)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--precision: must be at most 100000" in err
    assert "the digits each decimal column prints" in err
    args = cli.build_parser().parse_args([*argv, "--precision", str(cli.MAX_PRECISION)])
    assert args.precision == cli.MAX_PRECISION == 100000


def _cli_lines(*argv: str) -> tuple[int, list[str], str]:
    completed = run_child("-m", "consets.cli", *argv)
    return completed.returncode, completed.stdout.splitlines(), completed.stderr


def test_verify_cell_output_contract():
    code, lines, err = _cli_lines("verify", "--m", "2", "--n", "10")
    assert (code, err) == (0, "")
    assert lines == [
        "PASS  census-vs-formula count  [m=2 n=10]",
        "PASS  census-vs-formula order total  [m=2 n=10]",
        "PASS  census-vs-formula average  [m=2 n=10]",
        "PASS  census-vs-formula density  [m=2 n=10]",
        "all 4 checks passed",
    ]


def test_verify_graph_output_contract(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    code, lines, err = _cli_lines("verify", "--graph", str(path))
    assert (code, err) == (0, "")
    assert lines == [
        f"census of {path}: sizes {{1:4 2:4 3:4 4:1}}",
        "N=13 S=28 A=28/13 (~2.15384615385) D=7/13 (~0.538461538462)",
        "PASS  connectivity checkers agree  [4 vertices, 4 edges]",
        "all 1 checks passed",
    ]


def test_precision_flag(capsys):
    code, out, _ = run_cli(capsys, "compute", "--m", "3", "--n", "2",
                           "--precision", "5")
    assert code == 0
    assert "A=54/17 (~3.1765)" in out
