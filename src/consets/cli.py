"""Command-line surface.

Subcommands
-----------
compute
    One (m, n) cell: count, order total, average, density.
table
    Cells n = 1..n_max for a fixed m.
verify
    Cross-validation: census vs formulas at one cell, ladder closed
    forms, characteristic-coefficient identities, an arbitrary edge-list
    graph, or (with no scope flags) the full desk-scale battery,
    verify.SUITES.  --ladder and --charpoly run their suites at the
    battery's sizes unless --n-max or --m-max is given.  A cell and the
    battery's grid are censused by oracle.enumerated_census; --graph runs
    it and the 2^v flood census of oracle.census and compares their size
    counts.  Both routes refuse a graph above 26 vertices (oracle.MAX_CAP).
charpoly
    The characteristic polynomial of the layer recurrence matrix, with
    its coefficient identities checked.  It comes from
    layers.layer_polynomial (Berlekamp-Massey on the streamed totals,
    certified exactly or refused), p's one route, which both recurrence
    jumps take too; verify --charpoly compares it with Faddeev-LeVerrier.
ladder
    The two-layer cells: compute (--n) or table (--n-max) at m = 2;
    verify --ladder checks them against the ladder closed forms.

compute, table and ladder take --format: plain (default), csv (fixed
header), json (big integers as decimal strings).  Every printed row is
one aggregate.ProductResult, built from the cell's count and order sum
by ProductResult.of_cell, which checks that 1 <= A <= mn on the integers
and reduces A.  OutputRecord renders it, reading D's reduction off A and
a gcd with mn, and writes each csv or plain row in one call.
ladder takes exactly one of --n and --n-max.
Exact fractions are authoritative; decimal columns are renderings at
--precision significant digits, round-half-even, which compute, table,
ladder and verify --graph take; --precision is refused above
MAX_PRECISION (100000) before any work.  A row's integers get their text
from libmpdec, linear where int.__str__ is quadratic: table and ladder
--n-max step a Decimal twin of the stream in the exact context EXACT,
compute converts N and S by divide and conquer, and a row prints only if
they equal the checked ints modulo 2^61 - 1.  Each decimal column is one
libmpdec division.  table and ladder --n-max print each csv or plain row
as the engine yields it, so their memory does not grow with n_max; json
collects the rows and writes the array in one call, so a failure
mid-table prints no partial array.

table, ladder --n-max and a compute that streams (n <= 4m+4) load only
the engine's stream (aggregate, layers, records).  A compute that jumps
(n >= 4m+5) also loads the polynomial arithmetic of exactmath, as
charpoly and verify do; aggregate's docstring states the engine's
routes and the cells each serves.  verify imports the census and the
suites when it runs (verify --m/--n and --graph only the census and its
checks, from reporting), charpoly only the coefficient checks
(recurrence), never the census; the CLI writes JSON itself, and no
command imports json, so a process pays only for the command it runs.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3
internal error (any other exception, an engine cell outside
1 <= A <= mn among them, reported on one stderr line), 141
output pipe closed by its reader (128 + SIGPIPE; nothing on stderr).
Since table and ladder --n-max stream csv and plain rows, a nonzero
exit from them may follow rows already printed.
"""

from __future__ import annotations

import argparse
import decimal
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from . import aggregate
from .layers import layer_polynomial
from .records import Check, FrozenRecord

CSV_HEADER = "m,n,N,S,A_num,A_den,A_dec,D_num,D_den,D_dec"
DEFAULT_PRECISION = 12
#: Largest --precision: it bounds the digits of each decimal column, and
#: with them its text, time and memory, which libmpdec keeps linear.
MAX_PRECISION = 100_000
_FAULTS = [decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow]
#: The exact context: a rounding traps too, and the trap (an ArithmeticError)
#: exits 3.  The Decimal twin and the conversion run in a copy of it, and a
#: row's exact steps call its methods, whatever the caller's context; only
#: +, -, *, // and % run in it, since a / would allocate MAX_PREC digits.
EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                        traps=[decimal.Inexact, decimal.Rounded, *_FAULTS])
#: Exit code when the reader of stdout goes away: 128 + SIGPIPE, as a shell
#: reports a process that the signal ended.
CLOSED_PIPE = 141


def _decimals(*values: int) -> tuple[Decimal, ...]:
    """``Decimal(value)`` of each value by divide and conquer: split at
    power-of-two bit boundaries and join the halves with libmpdec products,
    so only pieces under 2^1024 meet ``Decimal(int)``, which is quadratic.
    The powers 2^(1024·2^j) are built once for all the values, as many as
    the widest needs: a row converts its N and S with one set."""
    with localcontext(EXACT):
        widest = max(abs(value).bit_length() for value in values)
        powers: list[Decimal] = []  # powers[j] = 2^(1024·2^j)
        while 1024 << len(powers) < widest:
            powers.append(powers[-1] * powers[-1] if powers else Decimal(1 << 1024))

        def join(piece: int, level: int) -> Decimal:
            if not piece >> 1024:
                return Decimal(piece)
            width = 1024 << level
            high = piece >> width
            if not high:  # a narrower value, or a low half with leading zeros
                return join(piece, level - 1)
            return (join(high, level - 1) * powers[level]
                    + join(piece & ((1 << width) - 1), level - 1))

        top = len(powers) - 1
        return tuple(-join(-value, top) if value < 0 else join(value, top) for value in values)


@lru_cache(maxsize=1)
def _rounding(precision: int) -> decimal.Context:
    """A decimal column's context: ``precision`` digits, round-half-even.
    A command renders at one precision, so it is built once and shared;
    it traps only faults, so the Inexact and Rounded flags it gathers
    change no result."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    return decimal.Context(prec=precision, rounding=decimal.ROUND_HALF_EVEN,
                           Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=_FAULTS)


def format_decimal(value: Fraction, precision: int = DEFAULT_PRECISION) -> str:
    """Decimal rendering at the given significant digits, round-half-even."""
    num, den = _decimals(value.numerator, value.denominator)
    return format(_rounding(precision).divide(num, den), "f")


def _exact_text(num: str, den: str) -> str:
    """A reduced fraction's text, as ``str(Fraction)`` gives it."""
    return num if den == "1" else f"{num}/{den}"


class OutputRecord(FrozenRecord):
    """One printed row: the rendering of one cell's result, from its N and
    S as exact Decimals, the twin walk's or converted from the result's
    ints.  They must equal those ints modulo 2^61 - 1, or no row is made."""

    __slots__ = ("result", "count", "total")

    def __init__(self, result: aggregate.ProductResult, count=None, total=None):
        if count is None:
            count, total = _decimals(result.count, result.total)
        # hash() of a whole number is its residue modulo 2^61 - 1
        # (sys.hash_info.modulus), for an int as for a Decimal.
        if (hash(count), hash(total)) != (hash(result.count), hash(result.total)):
            raise ArithmeticError(f"decimal twin differs at m={result.m} n={result.n}")
        setter = object.__setattr__
        setter(self, "result", result)
        setter(self, "count", count)
        setter(self, "total", total)

    @classmethod
    def from_result(cls, result: aggregate.ProductResult) -> OutputRecord:
        return cls(result)

    @classmethod
    def from_ladder(cls, n: int) -> OutputRecord:
        return cls(aggregate.evaluate(2, n))

    def _fields(self, precision: int) -> tuple[str, ...]:
        """Texts of N, S, A_num, A_den, A_dec, D_num, D_den, D_dec from libmpdec,
        each distinct number once: A = (S/g) / (N/g) and D = (A_num/g2) /
        (A_den·mn/g2), with g = gcd(S, N) read off the average as N / A_den
        and g2 = gcd(A_num, mn), a gcd with a small number.  The steps call
        EXACT's methods, and str and format(..., "f") read no context, so a
        row needs none entered."""
        result, average = self.result, self.result.average
        g, g2 = result.count // average.denominator, gcd(average.numerator, result.m * result.n)
        count, total = str(self.count), str(self.total)
        if g == 1:
            a_num, a_den, a_texts = self.total, self.count, (total, count)
        else:
            a_num, a_den = EXACT.divide_int(self.total, g), EXACT.divide_int(self.count, g)
            a_texts = (str(a_num), str(a_den))
        d_num = a_num if g2 == 1 else EXACT.divide_int(a_num, g2)
        d_den = EXACT.multiply(a_den, result.m * result.n // g2)
        d_texts = (a_texts[0] if g2 == 1 else str(d_num), str(d_den))
        rounding = _rounding(precision)
        return (count, total, *a_texts, format(rounding.divide(a_num, a_den), "f"),
                *d_texts, format(rounding.divide(d_num, d_den), "f"))

    def csv_row(self, precision: int) -> str:
        return ",".join((str(self.result.m), str(self.result.n), *self._fields(precision)))

    def json_object(self, precision: int) -> dict[str, object]:
        count, total, a_num, a_den, a_dec, d_num, d_den, d_dec = self._fields(precision)
        return {"m": self.result.m, "n": self.result.n, "N": count, "S": total,
                "A_exact": _exact_text(a_num, a_den), "A_decimal": a_dec,
                "D_exact": _exact_text(d_num, d_den), "D_decimal": d_dec}

    def plain_line(self, precision: int) -> str:
        count, total, a_num, a_den, a_dec, d_num, d_den, d_dec = self._fields(precision)
        return (f"m={self.result.m} n={self.result.n}: N={count} S={total} "
                f"A={_exact_text(a_num, a_den)} (~{a_dec}) "
                f"D={_exact_text(d_num, d_den)} (~{d_dec})")


def _json_text(fields: dict[str, object], indent: str) -> str:
    """``json.dumps(fields, indent=2)`` of a json_object, nested ``indent``
    deep: its keys are fixed ASCII names and its values ints or strings of
    digits, "/" and ".", none of which JSON escapes."""
    members = ",\n".join(f'{indent}  "{key}": {value}' if isinstance(value, int)
                         else f'{indent}  "{key}": "{value}"' for key, value in fields.items())
    return f"{{\n{members}\n{indent}}}"


def emit_records(records: Iterable[OutputRecord], fmt: str, precision: int,
                 single: bool) -> None:
    """Print the records; csv and plain write each row as it arrives, with
    its newline in the same write call (``print`` makes two, which
    unbuffered stdout, as under PYTHONUNBUFFERED, passes on one by one).
    json writes the text ``json.dumps(..., indent=2)`` gives for the one
    record or the list of them, once every record is rendered."""
    write = sys.stdout.write
    if fmt == "json":
        objects = [_json_text(record.json_object(precision), "" if single else "  ")
                   for record in records]
        if single:
            write(objects[0] + "\n")
        else:
            write("[\n  " + ",\n  ".join(objects) + "\n]\n" if objects else "[]\n")
        return
    if fmt == "csv":
        write(CSV_HEADER + "\n")
    row = OutputRecord.csv_row if fmt == "csv" else OutputRecord.plain_line
    for record in records:
        write(row(record, precision) + "\n")


def _print_checks(checks: Sequence[Check]) -> int:
    for check in checks:
        print(check.line())
    failed = [check for check in checks if not check.ok]
    if failed:
        print(f"{len(failed)} of {len(checks)} checks FAILED")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _precision(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_PRECISION}, a bound on the digits each "
            f"decimal column prints")
    return value


def cmd_compute(args: argparse.Namespace) -> int:
    record = OutputRecord.from_result(aggregate.evaluate(args.m, args.n))
    emit_records([record], args.format, args.precision, single=True)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    # The int walk gives the checked results, its Decimal twin the printed N, S.
    cells = zip(range(1, args.n_max + 1), aggregate.cell_stream(args.m),
                aggregate.cell_stream(args.m, Decimal(1)))
    records = (OutputRecord(aggregate.ProductResult.of_cell(args.m, n, count, total), *twin)
               for n, (count, total), twin in cells)
    with localcontext(EXACT):
        emit_records(records, args.format, args.precision, single=False)
    return 0


def cmd_charpoly(args: argparse.Namespace) -> int:
    if args.m < 2:
        print(f"m={args.m}: {layer_polynomial(args.m)}")
        print("coefficient identities apply from m=2 upward; nothing to check")
        return 0
    from .recurrence import validate_coefficients

    report = validate_coefficients(args.m)
    print(f"m={args.m}: {report.polynomial}")
    return _print_checks(report.checks)


def cmd_ladder(args: argparse.Namespace) -> int:
    return cmd_compute(args) if args.n is not None else cmd_table(args)


def cmd_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from . import oracle, reporting

    if args.n_max is not None and not args.ladder:
        raise ValueError("--n-max applies only with --ladder")
    if args.m_max is not None and not args.charpoly:
        raise ValueError("--m-max applies only with --charpoly")
    if args.precision is not None and args.graph is None:
        raise ValueError("--precision applies only with --graph")
    checks: list[Check] = []
    scoped = False
    if args.m is not None or args.n is not None:
        if args.m is None or args.n is None:
            raise ValueError("cell verification needs both --m and --n")
        scoped = True
        checks.extend(reporting.oracle_cell_checks(args.m, args.n))
    if args.ladder:
        from . import verify

        scoped = True
        # without --n-max (or --m-max) a suite runs at its defaults, the battery's sizes
        n_max = () if args.n_max is None else (args.n_max,)
        checks.extend(verify.ladder_checks(*n_max))
        checks.extend(verify.ladder_identity_checks(*n_max))
    if args.charpoly:
        from . import verify

        scoped = True
        m_max = () if args.m_max is None else (args.m_max,)
        if args.m_max is not None and args.m_max < 2:
            raise ValueError("--m-max must be at least 2 for coefficient checks")
        checks.extend(verify.charpoly_checks(*m_max))
    if args.graph is not None:
        scoped = True
        graph = oracle.parse_edge_list(Path(args.graph).read_text(encoding="utf-8"))
        graph_checks, report = reporting.graph_file_checks(graph)
        precision = DEFAULT_PRECISION if args.precision is None else args.precision
        sizes = " ".join(f"{t}:{c}" for t, c in enumerate(report.size_counts, start=1) if c)
        print(f"census of {args.graph}: sizes {{{sizes}}}")
        print(f"N={report.count} S={report.total_order} "
              f"A={report.average} (~{format_decimal(report.average, precision)}) "
              f"D={report.density} (~{format_decimal(report.density, precision)})")
        checks.extend(graph_checks)
    if not scoped:
        from . import verify

        checks = verify.full_suite()
    return _print_checks(checks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consets",
        description="Exact counts, order sums, averages, and densities of "
                    "connected vertex sets of a complete-layer/path product graph.")
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("plain", "csv", "json"),
                           default="plain", help="output format (default plain)")
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION,
                           help=f"significant digits for decimal renderings "
                                f"(default {DEFAULT_PRECISION}, at most {MAX_PRECISION})")
    rendered = [formatted, precision]
    commands = parser.add_subparsers(dest="command", required=True)

    p_compute = commands.add_parser(
        "compute", parents=rendered, help="one (m, n) cell")
    p_compute.add_argument("--m", type=_positive_int, required=True,
                           help="layer size (complete-graph order)")
    p_compute.add_argument("--n", type=_positive_int, required=True,
                           help="path length (number of layers)")
    p_compute.set_defaults(func=cmd_compute)

    p_table = commands.add_parser(
        "table", parents=rendered, help="cells n=1..n_max for a fixed m")
    p_table.add_argument("--m", type=_positive_int, required=True)
    p_table.add_argument("--n-max", type=_positive_int, required=True)
    p_table.set_defaults(func=cmd_table)

    p_verify = commands.add_parser(
        "verify",
        help="cross-validate formulas against the census and each other "
             "(no flags: full desk-scale suite)")
    p_verify.add_argument("--m", type=_positive_int,
                          help="cell to check against the connected-set enumerator")
    p_verify.add_argument("--n", type=_positive_int,
                          help="cell to check against the connected-set enumerator")
    p_verify.add_argument("--ladder", action="store_true",
                          help="check the two-layer closed forms")
    p_verify.add_argument("--charpoly", action="store_true",
                          help="check the characteristic-coefficient identities")
    p_verify.add_argument("--n-max", type=_positive_int,
                          help="horizon for --ladder (default: the battery's, "
                               "200, and 100 for the prefix-sum identities)")
    p_verify.add_argument("--m-max", type=_positive_int,
                          help="largest layer size for --charpoly "
                               "(default: the battery's, 10)")
    p_verify.add_argument("--graph", metavar="FILE",
                          help="edge-list file ('u v' per line, 0-based) to census "
                               "twice: connected-set enumerator against the 2^v "
                               "flood census")
    p_verify.add_argument("--precision", type=_precision,
                          help=f"significant digits for the --graph decimals "
                               f"(default {DEFAULT_PRECISION}, at most {MAX_PRECISION})")
    p_verify.set_defaults(func=cmd_verify)

    p_charpoly = commands.add_parser(
        "charpoly",
        help="characteristic polynomial of the layer recurrence matrix")
    p_charpoly.add_argument("--m", type=_positive_int, required=True)
    p_charpoly.set_defaults(func=cmd_charpoly)

    p_ladder = commands.add_parser(
        "ladder", parents=rendered, help="two-layer cells, m = 2")
    rungs = p_ladder.add_mutually_exclusive_group(required=True)
    rungs.add_argument("--n", type=_positive_int, help="single rung count")
    rungs.add_argument("--n-max", type=_positive_int, help="table of rung counts 1..n_max")
    p_ladder.set_defaults(func=cmd_ladder, m=2)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact answers are printed in full: lift CPython's int-to-str digit
    # limit (3.10.7 on) for this call only, so importing consets changes nothing.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed the pipe (say, `| head`): stop without an error
        # line, and point stdout at devnull so the flush at exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_PIPE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
