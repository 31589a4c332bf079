"""Cross-validation suites: formula paths against the exhaustive census
and against each other.

Each suite returns a list of Check records; the CLI prints one line per
check and fails on the first mismatch.  Sweeps over a range are folded
into one check per comparison kind, carrying the first failing cell in
the detail (a 200-cell sweep should not print 200 lines).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from . import aggregate, ladder, oracle, recurrence
from .exactmath import char_poly
from .layers import (
    column_stream,
    footprint_weights,
    profile_table,
    recurrence_matrix,
    weighted_power_symmetric,
    weighted_profile_sum,
    weighted_sum,
)
from .orders import layer_order_sum_convolution, order_column_direct
from .reporting import Check

#: Desk-scale cells for census-vs-formula equivalence: (m, largest n).
ORACLE_GRID = ((1, 10), (2, 8), (3, 5), (4, 4), (5, 3))


def oracle_cell_checks(m: int, n: int, cap: int | None = None) -> list[Check]:
    """All four headline quantities at one cell, formula path vs census."""
    result = aggregate.evaluate(m, n)
    report = oracle.census(oracle.complete_path_product(m, n, cap).graph, cap)
    where = f"m={m} n={n}"
    return [
        Check("census-vs-formula count", where, result.count == report.count,
              f"formula {result.count}, census {report.count}"),
        Check("census-vs-formula order total", where, result.total == report.total_order,
              f"formula {result.total}, census {report.total_order}"),
        Check("census-vs-formula average", where, result.average == report.average,
              f"formula {result.average}, census {report.average}"),
        Check("census-vs-formula density", where, result.density == report.density,
              f"formula {result.density}, census {report.density}"),
    ]


def oracle_grid_checks(cap: int | None = None) -> list[Check]:
    checks = []
    for m, n_top in ORACLE_GRID:
        for n in range(1, n_top + 1):
            checks.extend(oracle_cell_checks(m, n, cap))
    return checks


def _swept(name: str, where: str, mismatches: list[str]) -> Check:
    return Check(name, where, not mismatches,
                 mismatches[0] if mismatches else "")


def ladder_checks(n_max: int = 200) -> list[Check]:
    """Ladder closed forms against the general-m machinery, n = 1..n_max.

    Count and average come from the closed-form row walk that ``ladder
    --n-max`` prints; the published formula and the density take one
    power of 1 + sqrt(2) per n, the single-n path.
    """
    count_bad, avg_bad, vince_bad, density_bad = [], [], [], []
    for n, sums, (closed_count, _, closed_average) in zip(
            range(1, n_max + 1), aggregate.cell_stream(2), ladder.row_stream()):
        result = aggregate.ProductResult.from_sums(2, n, *sums)
        count, average = result.count, result.average
        if closed_count != count:
            count_bad.append(f"n={n}: closed {closed_count}, stream {count}")
        if closed_average != average:
            avg_bad.append(f"n={n}: closed {closed_average}, stream {average}")
        if ladder.vince_average(n) != average:
            vince_bad.append(f"n={n}: published {ladder.vince_average(n)}, stream {average}")
        if ladder.ladder_density(n) != result.density:
            density_bad.append(f"n={n}")
    where = f"n=1..{n_max}"
    checks = [
        _swept("ladder count closed form", where, count_bad),
        _swept("ladder average closed form", where, avg_bad),
        _swept("ladder average vs published formula", where, vince_bad),
        _swept("ladder density closed form", where, density_bad),
    ]
    anchors = [
        ("ladder count anchor", 1, ladder.ladder_count(1), 3),
        ("ladder count anchor", 2, ladder.ladder_count(2), 13),
        ("ladder count anchor", 3, ladder.ladder_count(3), 40),
        ("ladder average anchor", 1, ladder.ladder_average(1), Fraction(4, 3)),
        ("ladder average anchor", 2, ladder.ladder_average(2), Fraction(28, 13)),
    ]
    for name, n, got, expected in anchors:
        checks.append(Check(name, f"n={n}", got == expected,
                            f"got {got}, expected {expected}"))
    return checks


def ladder_identity_checks(n_max: int = 100) -> list[Check]:
    """The five prefix-sum identities, folded to one check per identity."""
    failures: dict[str, list[str]] = {}
    names: list[str] = []
    for n in range(1, n_max + 1):
        for check in ladder.ladder_sum_identities(n):
            if check.name not in failures:
                failures[check.name] = []
                names.append(check.name)
            if not check.ok:
                failures[check.name].append(f"{check.where}: {check.detail}")
    where = f"n=1..{n_max}"
    return [_swept(name, where, failures[name]) for name in names]


def charpoly_checks(m_max: int = 10) -> list[Check]:
    checks: list[Check] = []
    for m in range(2, m_max + 1):
        checks.extend(recurrence.validate_coefficients(m).checks)
    return checks


def stream_checks(m_max: int = 6, k_max: int = 200) -> list[Check]:
    """The characteristic polynomial p of the layer matrix annihilates the
    matrix-path totals: sum_j p_j T(k-m+j) = 0 for every k = m+1..k_max.

    By induction on k this is the scalar recurrence seeded with T(1..m)
    reproducing T(1..k_max); a failure names the first horizon k where
    the recurrence departs from the matrix path.
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
    """Weighted power symmetry and the weighted column sums it implies."""
    checks = []
    for m in range(2, m_max + 1):
        counts = profile_table(m, k_max)
        weights = footprint_weights(m)
        sym_bad = [f"m={m} k={k}" for k in range(1, k_max + 1)
                   if not weighted_power_symmetric(m, k)]
        sum_bad = []
        for k in range(1, k_max + 1):
            for i in range(1, m + 1):
                expected = weights[i - 1] * counts[k - 1][i - 1]
                got = weighted_profile_sum(m, i, k)
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
            convolved = layer_order_sum_convolution(m, k, counts)
            if weighted != convolved:
                conv_bad.append(f"m={m} k={k}: weighted {weighted}, convolution {convolved}")
        where = f"m={m} k=1..{k_max}"
        checks.append(_swept("order sums recursive vs literal matrix sum", where, direct_bad))
        checks.append(_swept("order sums recursive vs convolution", where, conv_bad))
    return checks


def anchor_checks(m_max: int = 10, n_max: int = 50) -> list[Check]:
    """Closed-form averages of the two degenerate families."""
    complete_bad = [
        f"m={m}: got {aggregate.average_order(m, 1)}"
        for m in range(1, m_max + 1)
        if aggregate.average_order(m, 1) != Fraction(m * 2 ** (m - 1), 2 ** m - 1)
    ]
    path_bad = [
        f"n={n}: got {aggregate.average_order(1, n)}"
        for n in range(1, n_max + 1)
        if aggregate.average_order(1, n) != Fraction(n + 2, 3)
    ]
    return [
        _swept("single-layer average anchor", f"m=1..{m_max} n=1", complete_bad),
        _swept("single-column average anchor", f"m=1 n=1..{n_max}", path_bad),
    ]


def jump_checks(m_max: int = 8, n_max: int = 200) -> list[Check]:
    """The recurrence jump against one stream walk per m, at the first
    horizons past its seeds, on both sides of the engine crossover, and
    at n_max."""
    checks = []
    for m in range(1, m_max + 1):
        streamed = list(islice(aggregate.cell_stream(m), n_max))
        degree = 2 * m + 2
        crossover = aggregate.STREAM_MAX_PER_LAYER * m
        horizons = {*range(degree + 1, degree + 5), crossover, crossover + 1, n_max}
        bad = []
        for n in sorted(h for h in horizons if h <= n_max):
            jumped = aggregate.jump_sums(m, n)
            if jumped != streamed[n - 1]:
                bad.append(f"m={m} n={n}: jump {jumped}, stream {streamed[n - 1]}")
        checks.append(_swept("recurrence jump vs stream", f"m={m} n<={n_max}", bad))
    return checks


def graph_file_checks(graph: oracle.SimpleGraph, cap: int | None = None) -> tuple[list[Check], oracle.CensusReport]:
    """Census an arbitrary graph with both connectivity checkers."""
    flood = oracle.census(graph, cap, connectivity="flood")
    union = oracle.census(graph, cap, connectivity="union-find")
    where = f"{graph.vertex_count} vertices, {graph.edge_count} edges"
    checks = [Check("connectivity checkers agree", where,
                    flood.size_counts == union.size_counts,
                    f"flood {flood.size_counts}, union-find {union.size_counts}")]
    return checks, flood


def full_suite(cap: int | None = None) -> list[Check]:
    """The whole desk-scale battery; the single verification entry point."""
    checks = []
    checks.extend(oracle_grid_checks(cap))
    checks.extend(ladder_checks(200))
    checks.extend(ladder_identity_checks(100))
    checks.extend(charpoly_checks(10))
    checks.extend(stream_checks(6, 200))
    checks.extend(symmetry_checks(6, 12))
    checks.extend(order_path_checks(5, 10))
    checks.extend(anchor_checks())
    checks.extend(jump_checks(8, 200))
    return checks
