"""Headline quantities for the product of a complete layer and a path.

Every connected set spans a contiguous block of layers, and blocks of
equal length are interchangeable, so the graph-level count and order sum
are triangular-weighted sums of the per-horizon layer quantities, which
``cell_stream`` keeps as running prefix sums.  The average order and
density come out as exact reduced fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .layers import column_stream, weighted_sum


def _check_cell(m: int, n: int) -> None:
    if m < 1:
        raise ValueError("layer size m must be at least 1")
    if n < 1:
        raise ValueError("path length n must be at least 1")


def cell_stream(m: int) -> Iterator[tuple[int, int]]:
    """Yield (N(n), S(n)), the count and order total, for n = 1, 2, ...

    With T(k) and U(k) the count and order sum of the sets spanning
    exactly k given layers, N(n) = sum_k (n+1-k) T(k), so
    N(n) = N(n-1) + sum_{k<=n} T(k); likewise S with U.  Running prefix
    sums make each step O(m) big-integer additions past the column step.
    """
    count = total = span_count = span_total = 0
    for counts, orders in column_stream(m):
        span_count += weighted_sum(counts)
        span_total += weighted_sum(orders)
        count += span_count
        total += span_total
        yield count, total


def _sums(m: int, n: int) -> tuple[int, int]:
    _check_cell(m, n)
    return next(islice(cell_stream(m), n - 1, None))


def count_connected_sets(m: int, n: int) -> int:
    """Number of connected vertex sets of the m-by-n product graph."""
    return _sums(m, n)[0]


def total_order(m: int, n: int) -> int:
    """Sum of the orders of all connected vertex sets."""
    return _sums(m, n)[1]


def average_order(m: int, n: int) -> Fraction:
    """Average order of a connected vertex set, exact."""
    count, total = _sums(m, n)
    return Fraction(total, count)


def density(m: int, n: int) -> Fraction:
    """Average order divided by the vertex count m*n, exact."""
    return average_order(m, n) / (m * n)


@dataclass(frozen=True, slots=True)
class ProductResult:
    """All four headline quantities for one (m, n) cell."""

    m: int
    n: int
    count: int
    total: int
    average: Fraction
    density: Fraction

    @classmethod
    def from_sums(cls, m: int, n: int, count: int, total: int) -> ProductResult:
        """The cell's result from its count and order total."""
        average = Fraction(total, count)
        return cls(m=m, n=n, count=count, total=total,
                   average=average, density=average / (m * n))

    def __post_init__(self):
        if self.average != Fraction(self.total, self.count):
            raise ValueError("average must equal total/count exactly")
        if self.density != self.average / (self.m * self.n):
            raise ValueError("density must equal average/(m*n) exactly")
        if not 1 <= self.average <= self.m * self.n:
            raise ValueError("average outside [1, m*n]")
        if not 0 < self.density <= 1:
            raise ValueError("density outside (0, 1]")


def evaluate(m: int, n: int) -> ProductResult:
    """Count, total order, average, and density for one cell."""
    return ProductResult.from_sums(m, n, *_sums(m, n))
