"""Output checks for the consets CLI that share no code with consets.

Nothing here imports the package under test, so a change that removes or
renames one of its internals cannot weaken a check.

* Counts N and order sums S are replayed modulo the product of two
  Mersenne primes with this file's own footprint-size recurrence.
* Averages and densities are checked exactly: A = S/N in lowest terms and
  D = A/(mn) in lowest terms.
* Decimal renderings are re-rounded here with integers (round-half-even
  at the requested significant digits) and compared as exact values.
* Verification reports are parsed line by line; the FAIL set must be
  exactly the one expected, so a check that goes missing is caught too.

Each ``check_*`` function returns a list of problems; empty means correct.
Big outputs are read line by line from the file the child wrote, never
held whole in memory.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, gcd
from pathlib import Path
from typing import Iterator

#: 2^61 - 1 and 2^89 - 1 are both prime; residues modulo their product
#: carry the residues modulo each.
MODULUS = (2 ** 61 - 1) * (2 ** 89 - 1)
PRECISION = 12
CSV_HEADER = "m,n,N,S,A_num,A_den,A_dec,D_num,D_den,D_dec"

#: The full battery reports these as FAIL: the constant-term claim is false
#: for m = 1, 2 (mod 4).  Any other FAIL set is a wrong output.
PINNED_BATTERY_FAILS = frozenset(
    ("charpoly constant term", f"m={m}") for m in (5, 6, 9, 10))
CELL_CHECK_NAMES = ("census-vs-formula count", "census-vs-formula order total",
                    "census-vs-formula average", "census-vs-formula density")

_CHECK_LINE = re.compile(r"^(PASS|FAIL)  (.+?)  \[(.*?)\](?:: .*)?$")
_PLAIN_LINE = re.compile(r"^m=(\d+) n=(\d+): N=(\d+) S=(\d+) A=(\S+) \(~(\S+)\) "
                         r"D=(\S+) \(~(\S+)\)$")
_GRAPH_SIZES = re.compile(r"^census of .*: sizes \{(.*)\}$")
_GRAPH_TOTALS = re.compile(r"^N=(\d+) S=(\d+) A=(\S+) \(~(\S+)\) D=(\S+) \(~(\S+)\)$")
_POLY_TERM = re.compile(r"^([+-]?)(\d*)(λ(?:\^(\d+))?)?$")


def footprint_matrix(m: int) -> list[list[int]]:
    """Row i, column j (both 1-based): j-vertex footprints in one layer that
    meet a fixed i-vertex footprint in the next, C(m,j) - C(m-i,j)."""
    return [[comb(m, j) - comb(m - i, j) for j in range(1, m + 1)]
            for i in range(1, m + 1)]


def replay(m: int) -> Iterator[tuple[int, int]]:
    """(N mod MODULUS, S mod MODULUS) for n = 1, 2, ... without end.

    Column k of counts advances by the footprint matrix; the order column
    advances by the same matrix plus i times the new count column.  The
    graph totals are prefix sums of prefix sums of the weighted columns.
    """
    matrix = footprint_matrix(m)
    weights = [comb(m, i) for i in range(1, m + 1)]
    counts = [1] * m
    orders = list(range(1, m + 1))
    count_prefix = order_prefix = big_n = big_s = 0
    while True:
        count_prefix = (count_prefix + sum(w * c for w, c in zip(weights, counts))) % MODULUS
        order_prefix = (order_prefix + sum(w * s for w, s in zip(weights, orders))) % MODULUS
        big_n = (big_n + count_prefix) % MODULUS
        big_s = (big_s + order_prefix) % MODULUS
        yield big_n, big_s
        counts = [sum(a * c for a, c in zip(row, counts)) % MODULUS for row in matrix]
        orders = [(sum(a * s for a, s in zip(row, orders)) + (i + 1) * counts[i]) % MODULUS
                  for i, row in enumerate(matrix)]


def replay_at(m: int, n: int) -> tuple[int, int]:
    for k, value in enumerate(replay(m), start=1):
        if k == n:
            return value
    raise AssertionError("unreachable")


def parse_fraction(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den) if den else 1


def _at_least_power(num: int, den: int, e: int) -> bool:
    """num/den >= 10**e."""
    return num >= den * 10 ** e if e >= 0 else num * 10 ** -e >= den


def rounded(num: int, den: int, digits: int = PRECISION) -> Fraction:
    """num/den (positive) rounded half-even to ``digits`` significant digits."""
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while _at_least_power(num, den, e + 1):
        e += 1
    while not _at_least_power(num, den, e):
        e -= 1
    shift = digits - 1 - e
    if shift >= 0:
        q, r = divmod(num * 10 ** shift, den)
        half = den
    else:
        half = den * 10 ** -shift
        q, r = divmod(num, half)
    if 2 * r > half or (2 * r == half and q % 2):
        q += 1
    return Fraction(q) / Fraction(10) ** shift


def _decimal_problem(label: str, text: str, num: int, den: int) -> list[str]:
    try:
        shown = Fraction(text)
    except ValueError:
        return [f"{label} decimal {text!r} does not parse"]
    if shown != rounded(num, den):
        return [f"{label} decimal {text} is not {num}/{den} rounded to {PRECISION} digits"]
    return []


def check_record(m: int, n: int, fields: tuple[str, ...], expected: tuple[int, int]) -> list[str]:
    """One result row: N, S, A_exact, A_dec, D_exact, D_dec as printed."""
    count_text, total_text, a_text, a_dec, d_text, d_dec = fields
    count, total = int(count_text), int(total_text)
    a_num, a_den = parse_fraction(a_text)
    d_num, d_den = parse_fraction(d_text)
    where = f"m={m} n={n}"
    problems = []
    if (count % MODULUS, total % MODULUS) != expected:
        problems.append(f"{where}: N or S disagrees with the replayed recurrence")
    if a_den < 1 or gcd(a_num, a_den) != 1 or a_num * count != a_den * total:
        problems.append(f"{where}: A is not S/N in lowest terms")
    if d_den < 1 or gcd(d_num, d_den) != 1 or d_num * a_den * m * n != a_num * d_den:
        problems.append(f"{where}: D is not A/(mn) in lowest terms")
    if not problems:
        problems += _decimal_problem(f"{where}: A", a_dec, a_num, a_den)
        problems += _decimal_problem(f"{where}: D", d_dec, d_num, d_den)
    return problems


def check_plain(path: Path, m: int, n: int) -> list[str]:
    """``compute`` in plain format (the set-up probe)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    match = _PLAIN_LINE.match(lines[0]) if len(lines) == 1 else None
    if match is None:
        return ["plain output is not one result line"]
    if (int(match[1]), int(match[2])) != (m, n):
        return [f"plain output is for the wrong cell: {lines[0][:40]}"]
    return check_record(m, n, match.groups()[2:], replay_at(m, n))


def check_json_cell(path: Path, m: int, n: int) -> list[str]:
    """``compute --format json``."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        fields = tuple(record[key] for key in ("N", "S", "A_exact", "A_decimal",
                                               "D_exact", "D_decimal"))
        cell = (record["m"], record["n"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"json output does not parse: {exc}"]
    if cell != (m, n):
        return [f"json output is for cell {cell}, not {(m, n)}"]
    return check_record(m, n, fields, replay_at(m, n))


def check_csv_rows(path: Path, m: int, n_max: int) -> list[str]:
    """``table`` or ``ladder`` in csv format: rows n = 1..n_max, all checked."""
    problems: list[str] = []
    expected = replay(m)
    rows = 0
    with path.open(encoding="utf-8") as lines:
        if next(lines, "").rstrip("\n") != CSV_HEADER:
            return ["csv header is missing or wrong"]
        for rows, line in enumerate(lines, start=1):
            fields = line.rstrip("\n").split(",")
            if len(fields) != 10 or fields[:2] != [str(m), str(rows)] or rows > n_max:
                return problems + [f"csv row {rows} is malformed or out of order"]
            row_fields = (fields[2], fields[3], f"{fields[4]}/{fields[5]}", fields[6],
                          f"{fields[7]}/{fields[8]}", fields[9])
            problems += check_record(m, rows, row_fields, next(expected))
            if len(problems) > 5:
                return problems
    if rows != n_max:
        problems.append(f"csv has {rows} rows, expected {n_max}")
    return problems


def parse_report(path: Path) -> tuple[list[str], set[tuple[str, str]], set[tuple[str, str]], str]:
    """Split a verification report into other lines, PASS set, FAIL set and
    the summary line."""
    other, passed, failed = [], set(), set()
    lines = path.read_text(encoding="utf-8").splitlines()
    summary = lines.pop() if lines else ""
    for line in lines:
        match = _CHECK_LINE.match(line)
        if match is None:
            other.append(line)
        else:
            (passed if match[1] == "PASS" else failed).add((match[2], match[3]))
    return other, passed, failed, summary


def _summary_problem(summary: str, failed: int) -> list[str]:
    if failed and not re.fullmatch(rf"{failed} of \d+ checks FAILED", summary):
        return [f"summary {summary!r} does not report {failed} failures"]
    if not failed and not re.fullmatch(r"all \d+ checks passed", summary):
        return [f"summary {summary!r} does not report a clean pass"]
    return []


def check_battery(path: Path, code: int) -> list[str]:
    """Full ``verify``: exit 1 with exactly the pinned FAIL set."""
    other, passed, failed, summary = parse_report(path)
    problems = _summary_problem(summary, len(PINNED_BATTERY_FAILS))
    if failed != PINNED_BATTERY_FAILS:
        problems.append(f"FAIL set differs from the pinned one: {sorted(failed)}")
    if code != 1 or other or not passed:
        problems.append(f"battery exit {code}, {len(passed)} PASS lines, {len(other)} stray lines")
    return problems


def check_census_cell(path: Path, code: int, m: int, n: int) -> list[str]:
    """``verify --m --n``: the four census comparisons pass at the cell."""
    other, passed, failed, summary = parse_report(path)
    where = f"m={m} n={n}"
    problems = _summary_problem(summary, 0)
    missing = [name for name in CELL_CHECK_NAMES if (name, where) not in passed]
    if code != 0 or failed or other or missing:
        problems.append(f"cell {where}: exit {code}, FAIL {sorted(failed)}, missing {missing}")
    return problems


def graph_invariants(vertex_count: int, edges: tuple[tuple[int, int], ...]) -> dict[int, int]:
    """Connected-set counts by size that follow from the edge list alone:
    sizes 1, 2, 3, v-1 and v."""
    adjacency: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    def connected(removed: int) -> bool:
        start = 0 if removed != 0 else 1
        seen, stack = {start}, [start]
        while stack:
            for w in adjacency[stack.pop()]:
                if w != removed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == vertex_count - (removed >= 0)

    triangles = sum(len(adjacency[u] & adjacency[v]) for u, v in edges) // 3
    paths = sum(comb(len(row), 2) for row in adjacency)
    return {1: vertex_count, 2: len(edges), 3: paths - 2 * triangles,
            vertex_count - 1: sum(connected(v) for v in range(vertex_count)),
            vertex_count: int(connected(-1))}


def check_graph(path: Path, code: int, vertex_count: int,
                edges: tuple[tuple[int, int], ...]) -> list[str]:
    """``verify --graph``: census sizes, totals, fractions and the checker
    agreement line."""
    other, passed, failed, summary = parse_report(path)
    problems = _summary_problem(summary, 0)
    if code != 0 or failed or ("connectivity checkers agree" not in {p[0] for p in passed}):
        return problems + [f"graph verify exit {code}, FAIL {sorted(failed)}"]
    sizes_match = _GRAPH_SIZES.match(other[0]) if len(other) == 2 else None
    totals_match = _GRAPH_TOTALS.match(other[1]) if sizes_match else None
    if totals_match is None:
        return problems + ["graph census lines do not parse"]
    sizes = {int(t): int(c) for t, c in
             (item.split(":") for item in sizes_match[1].split())}
    for size, count in graph_invariants(vertex_count, edges).items():
        if sizes.get(size, 0) != count:
            problems.append(f"graph census has {sizes.get(size, 0)} sets of size {size}, "
                            f"expected {count}")
    count, total = int(totals_match[1]), int(totals_match[2])
    if count != sum(sizes.values()) or total != sum(t * c for t, c in sizes.items()):
        problems.append("graph N or S disagrees with the size counts")
    a_num, a_den = parse_fraction(totals_match[3])
    d_num, d_den = parse_fraction(totals_match[5])
    if Fraction(a_num, a_den) != Fraction(total, count) or gcd(a_num, a_den) != 1:
        problems.append("graph A is not S/N in lowest terms")
    if Fraction(d_num, d_den) != Fraction(total, count * vertex_count) or gcd(d_num, d_den) != 1:
        problems.append("graph D is not A/v in lowest terms")
    return problems + _decimal_problem("graph A", totals_match[4], a_num, a_den) + \
        _decimal_problem("graph D", totals_match[6], d_num, d_den)


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def parse_polynomial(text: str) -> dict[int, int]:
    """'λ^3 - 4λ^2 + λ - 1' -> {3: 1, 2: -4, 1: 1, 0: -1}."""
    terms = text.replace(" - ", " -").replace(" + ", " +").split()
    coefficients = {}
    for term in terms:
        match = _POLY_TERM.match(term)
        if match is None or not (match[2] or match[3]):
            raise ValueError(f"term {term!r}")
        power = (int(match[4]) if match[4] else 1) if match[3] else 0
        value = int(match[2]) if match[2] else 1
        coefficients[power] = -value if match[1] == "-" else value
    return coefficients


def check_charpoly(path: Path, code: int, m: int) -> list[str]:
    """``charpoly --m``: monic, top coefficient F(m+1) - 2^m, constant term
    (-1)^m det with det = (-1)^(m(m-1)/2), and the constant-term claim
    failing exactly when m = 1, 2 (mod 4), with exit code 1 then."""
    other, _passed, failed, summary = parse_report(path)
    claim_fails = m % 4 in (1, 2)
    prefix = f"m={m}: "
    if len(other) != 1 or not other[0].startswith(prefix):
        return ["charpoly polynomial line is missing"]
    try:
        poly = parse_polynomial(other[0][len(prefix):])
    except ValueError as exc:
        return [f"charpoly polynomial does not parse: {exc}"]
    problems = _summary_problem(summary, int(claim_fails))
    if poly.get(m) != 1 or max(poly) != m:
        problems.append(f"charpoly m={m} is not monic of degree m")
    if poly.get(m - 1, 0) != fibonacci(m + 1) - 2 ** m:
        problems.append(f"charpoly m={m} top coefficient {poly.get(m - 1, 0)}")
    if poly.get(0, 0) != (-1) ** m * (-1) ** (m * (m - 1) // 2):
        problems.append(f"charpoly m={m} constant term {poly.get(0, 0)}")
    expected_fails = {("charpoly constant term", f"m={m}")} if claim_fails else set()
    if failed != expected_fails or code != int(claim_fails):
        problems.append(f"charpoly m={m}: exit {code}, FAIL {sorted(failed)}")
    return problems
