"""The census checks that ``verify --m --n``, ``verify --graph`` and the
battery's grid share.

The census checks live here rather than in ``verify``, so that a scoped
census run imports the engine and the census alone, never the suites,
the ladder closed forms, the order routes or the coefficient checks.
"""

from __future__ import annotations

from . import aggregate, oracle
from .records import Check


def oracle_cell_checks(m: int, n: int, cap: int | None = None) -> list[Check]:
    """All four headline quantities at one cell, formula path vs the
    connected-set enumerator."""
    result = aggregate.evaluate(m, n)
    report = oracle.enumerated_census(oracle.complete_path_product(m, n, cap).graph, cap)
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


def graph_file_checks(graph: oracle.SimpleGraph, cap: int | None = None) -> tuple[list[Check], oracle.CensusReport]:
    """Census an arbitrary graph twice: the connected-set enumerator
    against the 2^v census with the flood checker."""
    grown = oracle.enumerated_census(graph, cap)
    flood = oracle.census(graph, cap, connectivity="flood")
    where = f"{graph.vertex_count} vertices, {graph.edge_count} edges"
    checks = [Check("connectivity checkers agree", where,
                    grown.size_counts == flood.size_counts,
                    f"enumerator {grown.size_counts}, flood {flood.size_counts}")]
    return checks, flood
