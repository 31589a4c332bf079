"""Cross-validation suites: formula paths against the census and against
each other.

The census is ``oracle.enumerated_census``, which grows the connected
sets themselves: the battery's ``ORACLE_GRID`` compares the engine with
it, through ``oracle.oracle_cell_checks``, the check that ``verify
--m --n`` runs without importing this module.

Each suite returns a list of Check records; the CLI prints one line for
every check and exits 1 if any failed.  Sweeps over a range are folded
into one check per comparison kind, carrying the first failing cell in
the detail (a 200-cell sweep should not print 200 lines).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice

from . import aggregate, ladder, recurrence
from .exactmath import char_poly
from .layers import (
    column_stream,
    footprint_weights,
    profile_table,
    recurrence_matrix,
    weighted_powers,
    weighted_profile_sums,
    weighted_sum,
)
from .oracle import oracle_cell_checks
from .orders import layer_order_sum_convolution, order_column_direct
from .records import Check

#: Desk-scale cells for census-vs-formula equivalence: (m, largest n).
#: Every cell has at most 26 vertices, the census limit; (2, 13) is the
#: first m = 2 cell that ``aggregate.evaluate`` jumps to.
ORACLE_GRID = ((1, 22), (2, 13), (3, 6), (4, 4), (5, 3), (6, 3), (7, 2))


def oracle_grid_checks() -> list[Check]:
    checks = []
    for m, n_top in ORACLE_GRID:
        for n in range(1, n_top + 1):
            checks.extend(oracle_cell_checks(m, n))
    return checks


def _swept(name: str, where: str, mismatches: list[str]) -> Check:
    return Check(name, where, not mismatches,
                 mismatches[0] if mismatches else "")


#: Deep m = 2 horizons, both parities, where ``ladder_checks`` holds the
#: engine's average against the one big gcd of Fraction(S, N).
LADDER_GCD_HORIZONS = (1000, 1001, 4000, 4001)


def ladder_checks(n_max: int = 200) -> list[Check]:
    """Ladder closed forms against the general-m machinery, n = 1..n_max.

    ``ladder.row_stream`` gives, for each n, the closed-form count and
    order sum, their average and density Fraction(S, N) / (2n), and with
    its (H(n), P(n)) pair the published average; each is compared with
    the item of ``cell_stream(2)``, which ``ladder`` prints, made a row
    as the engine makes it, so its average is reduced by
    ``aggregate.ladder_gcd_multiple``.  Fractions compare numerator and
    denominator, so an average left unreduced fails.  At
    ``LADDER_GCD_HORIZONS`` the engine's average is held against
    Fraction(S, N) of its own N and S.  The anchors at n = 1, 2, 3 are
    the first rows of ``ladder.row_stream``, whatever n_max is.
    """
    count_bad, avg_bad, vince_bad, density_bad = [], [], [], []
    closed = ladder.row_stream()
    first_rows = list(islice(closed, 3))
    for n, (sums, ((closed_count, closed_total), (h, p))) in enumerate(
            zip(islice(aggregate.cell_stream(2), n_max), chain(first_rows, closed)), start=1):
        result = aggregate.ProductResult.of_cell(2, n, *sums)
        count, average = result.count, result.average
        closed_average = Fraction(closed_total, closed_count)
        if closed_count != count:
            count_bad.append(f"n={n}: closed {closed_count}, stream {count}")
        if closed_average != average:
            avg_bad.append(f"n={n}: closed {closed_average}, stream {average}")
        published = ladder.vince_average(n, h, p)
        if published != average:
            vince_bad.append(f"n={n}: published {published}, stream {average}")
        if closed_average / (2 * n) != result.density:
            density_bad.append(f"n={n}")
    gcd_bad = []
    for n in LADDER_GCD_HORIZONS:
        result = aggregate.evaluate(2, n)
        average, plain = result.average, Fraction(result.total, result.count)
        if average != plain:
            gcd_bad.append(f"n={n}: engine divides N and S by "
                           f"{result.count // average.denominator}, "
                           f"gcd(N, S) = {result.count // plain.denominator}")
    where = f"n=1..{n_max}"
    checks = [
        _swept("ladder count closed form", where, count_bad),
        _swept("ladder average closed form", where, avg_bad),
        _swept("ladder average vs published formula", where, vince_bad),
        _swept("ladder density closed form", where, density_bad),
        _swept("ladder gcd multiple", f"n={','.join(map(str, LADDER_GCD_HORIZONS))}", gcd_bad),
    ]
    ((count_1, total_1), _), ((count_2, total_2), _), ((count_3, _), _) = first_rows
    anchors = [
        ("ladder count anchor", 1, count_1, 3),
        ("ladder count anchor", 2, count_2, 13),
        ("ladder count anchor", 3, count_3, 40),
        ("ladder average anchor", 1, Fraction(total_1, count_1), Fraction(4, 3)),
        ("ladder average anchor", 2, Fraction(total_2, count_2), Fraction(28, 13)),
    ]
    for name, n, got, expected in anchors:
        checks.append(Check(name, f"n={n}", got == expected,
                            f"got {got}, expected {expected}"))
    return checks


def ladder_identity_checks(n_max: int = 100) -> list[Check]:
    """The five prefix-sum identities for n = 1..n_max, off one walk,
    folded to one check per identity."""
    failures: dict[str, list[str]] = {}
    for n, identities in zip(range(1, n_max + 1), ladder.ladder_sum_identities()):
        for name, direct, closed in identities:
            bad = failures.setdefault(name, [])
            if 2 * direct != closed:
                bad.append(f"n={n}: 2*{direct} vs {closed}")
    where = f"n=1..{n_max}"
    return [_swept(name, where, bad) for name, bad in failures.items()]


def charpoly_checks(m_max: int = 10) -> list[Check]:
    """The coefficient identities, and p from the streamed totals against
    Faddeev-LeVerrier on the literal matrix, for m = 2..m_max."""
    checks: list[Check] = []
    for m in range(2, m_max + 1):
        report = recurrence.validate_coefficients(m)
        matrix_side = char_poly(recurrence_matrix(m))
        checks.extend(report.checks)
        checks.append(Check("charpoly routes agree", f"m={m}",
                            report.polynomial == matrix_side,
                            f"stream {report.polynomial}, matrix {matrix_side}"))
    return checks


def layer_step_checks(m_max: int = 12) -> list[Check]:
    """The factored walk against the literal matrix, for m = 1..m_max over
    the first 2m+2 horizons, the columns behind p's totals T(1..2m) and
    the first 2m+1 stream items: each
    count column of ``column_stream`` is A times the one before, and each
    order column A times the one before plus i times the new counts.  One
    check in all, carrying the first horizon where the walk departs."""
    bad = []
    for m in range(1, m_max + 1):
        matrix = recurrence_matrix(m)
        pairs = list(islice(column_stream(m), 2 * m + 2))
        for k, ((counts, orders), walked) in enumerate(zip(pairs, pairs[1:]), start=2):
            stepped = matrix.apply(counts)
            expected = (stepped, tuple(s + i * c for i, (s, c)
                                       in enumerate(zip(matrix.apply(orders), stepped), start=1)))
            if walked != expected:
                bad.append(f"m={m} k={k}: walk {walked}, matrix {expected}")
                break
    return [_swept("layer step vs literal matrix", f"m=1..{m_max} k=1..2m+2", bad)]


def stream_checks(m_max: int = 6, k_max: int = 200) -> list[Check]:
    """Faddeev-LeVerrier's p, from the literal matrix, annihilates the
    totals of the factored count walk: sum_j p_j T(k-m+j) = 0 for every
    k = m+1..k_max.

    By induction on k this is the scalar recurrence seeded with T(1..m)
    reproducing T(1..k_max); a failure names the first horizon k where
    the recurrence departs from the walk.
    """
    checks = []
    for m in range(2, m_max + 1):
        p = char_poly(recurrence_matrix(m)).coefficients
        totals = [weighted_sum(counts) for counts in profile_table(m, k_max)]
        bad = []
        for k in range(m + 1, k_max + 1):
            residual = sum(c * t for c, t in zip(p, totals[k - m - 1:k]))
            if residual:
                bad.append(f"m={m} k={k}: recurrence {totals[k - 1] - residual}, "
                           f"matrix {totals[k - 1]}")
                break
        checks.append(_swept("scalar recurrence vs matrix path",
                             f"m={m} k=1..{k_max}", bad))
    return checks


def symmetry_checks(m_max: int = 6, k_max: int = 12) -> list[Check]:
    """Weighted power symmetry and the weighted column sums it implies,
    each power and each basis vector advanced once per horizon."""
    checks = []
    for m in range(2, m_max + 1):
        weights = footprint_weights(m)
        sym_bad, sum_bad = [], []
        for k, counts, power, sums in zip(range(1, k_max + 1), profile_table(m, k_max),
                                          weighted_powers(m), weighted_profile_sums(m)):
            if not power.is_symmetric:
                sym_bad.append(f"m={m} k={k}")
            for i, (weight, count, got) in enumerate(zip(weights, counts, sums), start=1):
                expected = weight * count
                if got != expected:
                    sum_bad.append(f"m={m} i={i} k={k}: got {got}, expected {expected}")
        where = f"m={m} k=1..{k_max}"
        checks.append(_swept("weighted power symmetry", where, sym_bad))
        checks.append(_swept("weighted profile sum", where, sum_bad))
    return checks


def order_path_checks(m_max: int = 5, k_max: int = 10) -> list[Check]:
    """Three-path agreement for the order sums."""
    checks = []
    for m in range(2, m_max + 1):
        counts, orders = zip(*islice(column_stream(m), k_max))
        direct_bad, conv_bad = [], []
        for k in range(1, k_max + 1):
            recursive = orders[k - 1]
            direct = order_column_direct(m, k)
            if recursive != direct:
                direct_bad.append(f"m={m} k={k}: recursive {recursive}, direct {direct}")
            weighted = weighted_sum(recursive)
            convolved = layer_order_sum_convolution(k, counts)
            if weighted != convolved:
                conv_bad.append(f"m={m} k={k}: weighted {weighted}, convolution {convolved}")
        where = f"m={m} k=1..{k_max}"
        checks.append(_swept("order sums recursive vs literal matrix sum", where, direct_bad))
        checks.append(_swept("order sums recursive vs convolution", where, conv_bad))
    return checks


def anchor_checks(m_max: int = 10, n_max: int = 50) -> list[Check]:
    """Closed-form averages of the two degenerate families."""
    complete_averages = ((m, aggregate.evaluate(m, 1).average) for m in range(1, m_max + 1))
    complete_bad = [
        f"m={m}: got {average}"
        for m, average in complete_averages
        if average != Fraction(m * 2 ** (m - 1), 2 ** m - 1)
    ]
    path_averages = (Fraction(total, count) for count, total in aggregate.cell_stream(1))
    path_bad = [
        f"n={n}: got {average}"
        for n, average in zip(range(1, n_max + 1), path_averages)
        if average != Fraction(n + 2, 3)
    ]
    return [
        _swept("single-layer average anchor", f"m=1..{m_max} n=1", complete_bad),
        _swept("single-column average anchor", f"m=1 n=1..{n_max}", path_bad),
    ]


def jump_checks(m_max: int = 8, n_max: int = 200) -> list[Check]:
    """Both recurrence jumps against one stream walk per m: the jump
    modulo Q for every m, and for m >= 2 the jump modulo p, each one
    check per m, at every horizon visited.

    With d = 2m+2 the degree of the annihilator Q, the horizons are
    d+1..d+4, the first past the seeds of the recurrence, where the Hankel
    form reads streamed terms back; 2d+1 and 2d+2, the first whose half
    power is reduced mod Q, so the first that Q decides and the first
    that ``evaluate`` jumps to, one of each parity; and n_max - 1 and
    n_max, the deep end in both parities.  The jump modulo p reduces its
    half power from n = 2m-1 on, so every horizon here exercises p."""
    checks = []
    for m in range(1, m_max + 1):
        streamed = list(islice(aggregate.cell_stream(m), n_max))
        degree = 2 * m + 2
        horizons = sorted(h for h in {*range(degree + 1, degree + 5), 2 * degree + 1,
                                      2 * degree + 2, n_max - 1, n_max} if 1 <= h <= n_max)
        routes = [("recurrence jump vs stream", "Q-jump", aggregate._jumper)]
        if m >= 2:
            routes.append(("recurrence jump modulo p vs stream", "p-jump", aggregate._p_jumper))
        for name, route, jumper in routes:
            jump = jumper(m)
            bad = []
            for n in horizons:
                jumped = jump(n)
                if jumped != streamed[n - 1]:
                    bad.append(f"m={m} n={n}: {route} {jumped}, stream {streamed[n - 1]}")
            checks.append(_swept(name, f"m={m} n<={n_max}", bad))
    return checks


#: The desk-scale battery, in the order it runs.  Each suite's defaults
#: are its sizes in the battery, which ``verify --ladder`` and
#: ``--charpoly`` share unless given --n-max or --m-max.
SUITES = (oracle_grid_checks, ladder_checks, ladder_identity_checks, charpoly_checks,
          layer_step_checks, stream_checks, symmetry_checks, order_path_checks,
          anchor_checks, jump_checks)


def full_suite() -> list[Check]:
    """The whole battery, every suite at its defaults; the single
    verification entry point."""
    return [check for suite in SUITES for check in suite()]
