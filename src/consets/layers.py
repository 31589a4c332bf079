"""Layer-by-layer counting of connected vertex sets in K_m x P_n.

The product graph is a path of n complete layers of size m.  A connected
set that touches layers 1..k is classified by its footprint in layer k
(its intersection with that layer), and by symmetry only the footprint
size matters.  The m counts per layer advance by one integer matrix, so
the whole count grid unrolls as a vector recurrence; the order sums ride
along in the same step.  ``column_stream`` is that recurrence, and the one
place it is written.

Indices follow the combinatorics: layers and horizons k are 1-based, as
are footprint sizes i in 1..m.  Matrix indices stay 0-based.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Sequence

from .exactmath import IntMatrix


def pascal_row(m: int) -> tuple[int, ...]:
    """Row m of Pascal's triangle: (C(m,0), ..., C(m,m))."""
    if m < 0:
        raise ValueError("binomial row index must be non-negative")
    row = (1,)
    for _ in range(m):
        row = (1, *(row[i] + row[i + 1] for i in range(len(row) - 1)), 1)
    return row


def footprint_weights(m: int) -> tuple[int, ...]:
    """(C(m,1), ..., C(m,m)): how many footprints share each size class."""
    if m < 1:
        raise ValueError("layer size must be at least 1")
    return pascal_row(m)[1:]


def recurrence_matrix(m: int) -> IntMatrix:
    """The m x m matrix advancing footprint-class counts by one layer.

    Entry (i, j), 1-based, is C(m,j) - C(m-i,j): the number of j-vertex
    footprints in the previous layer adjacent to a fixed i-vertex footprint
    in the next one.  The last row is the plain binomial row.
    """
    if m < 1:
        raise ValueError("layer size must be at least 1")
    full = pascal_row(m)
    rows = []
    for i in range(1, m + 1):
        sub = pascal_row(m - i)
        rows.append(tuple(full[j] - (sub[j] if j <= m - i else 0)
                          for j in range(1, m + 1)))
    return IntMatrix(rows)


def column_stream(m: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield the (count column, order column) pair for horizons k = 1, 2, ...

    The count column holds, for each footprint size i = 1..m, the number of
    connected sets of the k-layer product that meet every one of the first
    k-1 layers and occupy one fixed i-vertex footprint in layer k; the
    order column holds their summed orders.  At k = 1 they are all ones
    and (1, 2, ..., m).  Each step applies the recurrence matrix A to both
    (c <- A c; s <- A s + i c, the i c term counting the vertices layer k
    itself contributes).  Only the current pair is held.
    """
    matrix = recurrence_matrix(m)
    counts = (1,) * m
    orders = tuple(range(1, m + 1))
    while True:
        yield counts, orders
        counts = matrix.apply(counts)
        orders = tuple(s + i * c for i, (s, c)
                       in enumerate(zip(matrix.apply(orders), counts), start=1))


def profile_table(m: int, k_max: int) -> list[tuple[int, ...]]:
    """The count columns for horizons 1..k_max (index k-1 holds horizon k)."""
    if k_max < 1:
        raise ValueError("horizon must be at least 1")
    return [counts for counts, _ in islice(column_stream(m), k_max)]


def weighted_sum(column: Sequence[int]) -> int:
    """A footprint-class column weighted by the binomial row: the sum over
    every footprint of the layer (the total at that horizon)."""
    return sum(w * c for w, c in zip(footprint_weights(len(column)), column))


def weighted_profile_sum(m: int, i: int, k: int) -> int:
    """Binomial row dotted with the i-th column of the (k-1)-th matrix power.

    Equals C(m,i) times the size-i footprint count at horizon k; the matrix
    power is never materialized, only a basis vector is advanced k-1 times.
    """
    if not 1 <= i <= m:
        raise ValueError(f"footprint size {i} outside 1..{m}")
    if k < 1:
        raise ValueError("horizon must be at least 1")
    matrix = recurrence_matrix(m)
    vector = tuple(int(j == i - 1) for j in range(m))
    for _ in range(k - 1):
        vector = matrix.apply(vector)
    return weighted_sum(vector)


def weighted_power_symmetric(m: int, k: int) -> bool:
    """Whether diag(C(m,1)..C(m,m)) times the k-th matrix power is symmetric.

    This symmetry is what lets per-size counts stand in for per-footprint
    counts; it is checked on materialized powers, so keep k small.
    """
    if m < 1:
        raise ValueError("layer size must be at least 1")
    if k < 1:
        raise ValueError("power must be at least 1")
    matrix = recurrence_matrix(m)
    weighted = IntMatrix.diagonal(footprint_weights(m))
    for _ in range(k):
        weighted = weighted @ matrix
    return weighted.is_symmetric
