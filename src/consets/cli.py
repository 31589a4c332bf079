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
    graph, or (with no scope flags) the full desk-scale battery.
charpoly
    The characteristic polynomial of the layer recurrence matrix, with
    its coefficient identities checked.
ladder
    The two-layer closed forms at one n or for n = 1..n_max.

compute, table and ladder take --format: plain (default), csv (fixed
header), json (big integers as decimal strings).  Exact fractions are
authoritative; decimal columns are renderings at --precision significant
digits, round-half-even, which compute, table, ladder and verify --graph
take.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3
internal error (any other exception, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import aggregate, ladder, oracle, verify
from .exactmath import char_poly
from .layers import recurrence_matrix
from .recurrence import validate_coefficients
from .reporting import Check

CSV_HEADER = "m,n,N,S,A_num,A_den,A_dec,D_num,D_den,D_dec"
DEFAULT_PRECISION = 12


def format_decimal(value: Fraction, precision: int = DEFAULT_PRECISION) -> str:
    """Decimal rendering at the given significant digits, round-half-even."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    with localcontext() as ctx:
        ctx.prec = precision
        ctx.rounding = ROUND_HALF_EVEN
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return format(quotient, "f")


@dataclass(frozen=True, slots=True)
class OutputRecord:
    """One result row, carrying the exact values; rendering happens here."""

    m: int
    n: int
    count: int
    total: int
    average: Fraction
    density: Fraction

    @classmethod
    def from_result(cls, result: aggregate.ProductResult) -> OutputRecord:
        return cls(m=result.m, n=result.n, count=result.count, total=result.total,
                   average=result.average, density=result.density)

    @classmethod
    def from_ladder(cls, n: int) -> OutputRecord:
        return cls.from_ladder_row(n, *ladder.ladder_row(n))

    @classmethod
    def from_ladder_row(cls, n: int, count: int, total: int,
                        average: Fraction) -> OutputRecord:
        return cls(m=2, n=n, count=count, total=total,
                   average=average, density=average / (2 * n))

    def csv_row(self, precision: int) -> str:
        return ",".join(str(field) for field in (
            self.m, self.n, self.count, self.total,
            self.average.numerator, self.average.denominator,
            format_decimal(self.average, precision),
            self.density.numerator, self.density.denominator,
            format_decimal(self.density, precision)))

    def json_object(self, precision: int) -> dict[str, object]:
        return {
            "m": self.m,
            "n": self.n,
            "N": str(self.count),
            "S": str(self.total),
            "A_exact": str(self.average),
            "A_decimal": format_decimal(self.average, precision),
            "D_exact": str(self.density),
            "D_decimal": format_decimal(self.density, precision),
        }

    def plain_line(self, precision: int) -> str:
        return (f"m={self.m} n={self.n}: N={self.count} S={self.total} "
                f"A={self.average} (~{format_decimal(self.average, precision)}) "
                f"D={self.density} (~{format_decimal(self.density, precision)})")


def emit_records(records: Sequence[OutputRecord], fmt: str, precision: int,
                 single: bool) -> None:
    if fmt == "csv":
        print(CSV_HEADER)
        for record in records:
            print(record.csv_row(precision))
    elif fmt == "json":
        payload: object = records[0].json_object(precision) if single else [
            record.json_object(precision) for record in records]
        print(json.dumps(payload, indent=2))
    else:
        for record in records:
            print(record.plain_line(precision))


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
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def cmd_compute(args: argparse.Namespace) -> int:
    record = OutputRecord.from_result(aggregate.evaluate(args.m, args.n))
    emit_records([record], args.format, args.precision, single=True)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    records = [OutputRecord.from_result(aggregate.ProductResult.from_sums(args.m, n, *sums))
               for n, sums in zip(range(1, args.n_max + 1), aggregate.cell_stream(args.m))]
    emit_records(records, args.format, args.precision, single=False)
    return 0


def cmd_charpoly(args: argparse.Namespace) -> int:
    if args.m < 2:
        print(f"m={args.m}: {char_poly(recurrence_matrix(args.m))}")
        print("coefficient identities apply from m=2 upward; nothing to check")
        return 0
    report = validate_coefficients(args.m)
    print(f"m={args.m}: {report.polynomial}")
    return _print_checks(report.checks)


def cmd_ladder(args: argparse.Namespace) -> int:
    if args.n is None and args.n_max is None:
        raise ValueError("ladder needs --n or --n-max")
    if args.n is not None:
        records = [OutputRecord.from_ladder(args.n)]
    else:
        records = [OutputRecord.from_ladder_row(n, *row)
                   for n, row in zip(range(1, args.n_max + 1), ladder.row_stream())]
    emit_records(records, args.format, args.precision, single=args.n is not None)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max is not None and not args.ladder:
        raise ValueError("--n-max applies only with --ladder")
    if args.m_max is not None and not args.charpoly:
        raise ValueError("--m-max applies only with --charpoly")
    if args.precision is not None and args.graph is None:
        raise ValueError("--precision applies only with --graph")
    cap = oracle.resolve_cap(args.oracle_cap)
    checks: list[Check] = []
    scoped = False
    if args.m is not None or args.n is not None:
        if args.m is None or args.n is None:
            raise ValueError("cell verification needs both --m and --n")
        scoped = True
        checks.extend(verify.oracle_cell_checks(args.m, args.n, cap))
    if args.ladder:
        scoped = True
        n_max = args.n_max if args.n_max is not None else 50
        checks.extend(verify.ladder_checks(n_max))
        checks.extend(verify.ladder_identity_checks(n_max))
    if args.charpoly:
        scoped = True
        m_max = args.m_max if args.m_max is not None else 8
        if m_max < 2:
            raise ValueError("--m-max must be at least 2 for coefficient checks")
        checks.extend(verify.charpoly_checks(m_max))
    if args.graph is not None:
        scoped = True
        graph = oracle.parse_edge_list(Path(args.graph).read_text(encoding="utf-8"))
        graph_checks, report = verify.graph_file_checks(graph, cap)
        precision = DEFAULT_PRECISION if args.precision is None else args.precision
        sizes = " ".join(f"{t}:{c}" for t, c in enumerate(report.size_counts, start=1) if c)
        print(f"census of {args.graph}: sizes {{{sizes}}}")
        print(f"N={report.count} S={report.total_order} "
              f"A={report.average} (~{format_decimal(report.average, precision)}) "
              f"D={report.density} (~{format_decimal(report.density, precision)})")
        checks.extend(graph_checks)
    if not scoped:
        checks = verify.full_suite(cap)
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
    precision.add_argument("--precision", type=_positive_int, default=DEFAULT_PRECISION,
                           help=f"significant digits for decimal renderings "
                                f"(default {DEFAULT_PRECISION})")
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
        help="cross-validate formulas against the exhaustive census and "
             "each other (no flags: full desk-scale suite)")
    p_verify.add_argument("--m", type=_positive_int, help="cell to check against the census")
    p_verify.add_argument("--n", type=_positive_int, help="cell to check against the census")
    p_verify.add_argument("--ladder", action="store_true",
                          help="check the two-layer closed forms")
    p_verify.add_argument("--charpoly", action="store_true",
                          help="check the characteristic-coefficient identities")
    p_verify.add_argument("--n-max", type=_positive_int,
                          help="horizon for --ladder (default 50)")
    p_verify.add_argument("--m-max", type=_positive_int,
                          help="largest layer size for --charpoly (default 8)")
    p_verify.add_argument("--graph", metavar="FILE",
                          help="edge-list file ('u v' per line, 0-based) to census "
                               "with both connectivity checkers")
    p_verify.add_argument("--precision", type=_positive_int,
                          help=f"significant digits for the --graph decimals "
                               f"(default {DEFAULT_PRECISION})")
    p_verify.add_argument("--oracle-cap", type=int, default=None,
                          help=f"enumeration cap on vertices (default "
                               f"{oracle.DEFAULT_CAP}, ceiling {oracle.MAX_CAP})")
    p_verify.set_defaults(func=cmd_verify)

    p_charpoly = commands.add_parser(
        "charpoly",
        help="characteristic polynomial of the layer recurrence matrix")
    p_charpoly.add_argument("--m", type=_positive_int, required=True)
    p_charpoly.set_defaults(func=cmd_charpoly)

    p_ladder = commands.add_parser(
        "ladder", parents=rendered, help="two-layer closed forms")
    p_ladder.add_argument("--n", type=_positive_int, help="single rung count")
    p_ladder.add_argument("--n-max", type=_positive_int,
                          help="table of rung counts 1..n_max (ignored if --n is given)")
    p_ladder.set_defaults(func=cmd_ladder)

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
