"""Layer-by-layer counting of connected vertex sets in K_m x P_n.

The product graph is a path of n complete layers of size m.  A connected
set that touches layers 1..k is classified by its footprint in layer k
(its intersection with that layer), and by symmetry only the footprint
size matters.  The m counts per layer advance by one integer matrix, so
the whole count grid unrolls as a vector recurrence; the order sums ride
along in the same step.  ``count_columns`` is the count step, and the one
place it is written; ``column_stream`` adds the order step to it.
``layer_polynomial`` and ``profile_table`` read count columns only, so
they walk ``count_columns`` and never advance an order column.

Indices follow the combinatorics: layers and horizons k are 1-based, as
are footprint sizes i in 1..m.  Matrix indices stay 0-based.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Sequence

from .exactmath import IntMatrix, IntPolynomial, char_poly, sequence_annihilator


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


def count_columns(matrix: IntMatrix) -> Iterator[tuple[int, ...]]:
    """Yield the count column for horizons k = 1, 2, ...: all ones at
    k = 1, then c <- A c with A = ``matrix``.  Only the current column is
    held."""
    counts = (1,) * matrix.order
    while True:
        yield counts
        counts = matrix.apply(counts)


def column_stream(m: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield the (count column, order column) pair for horizons k = 1, 2, ...

    The count column holds, for each footprint size i = 1..m, the number of
    connected sets of the k-layer product that meet every one of the first
    k-1 layers and occupy one fixed i-vertex footprint in layer k; the
    order column holds their summed orders.  At k = 1 they are all ones
    and (1, 2, ..., m).  The counts step by ``count_columns``; the orders
    by s <- A s + i c, from s = 0 before horizon 1, the i c term counting
    the vertices layer k itself contributes.  Only the current pair is held.
    """
    matrix = recurrence_matrix(m)
    orders = (0,) * m
    for counts in count_columns(matrix):
        orders = tuple(s + i * c for i, (s, c)
                       in enumerate(zip(matrix.apply(orders), counts), start=1))
        yield counts, orders


def layer_polynomial(m: int) -> IntPolynomial:
    """The characteristic polynomial p of ``recurrence_matrix(m)``, read
    off the per-horizon totals T(1..2m) of one ``count_columns`` walk.

    T(k) is the weight row times A^(k-1) times the ones column, so p
    annihilates the totals (Cayley-Hamilton).  ``sequence_annihilator``
    certifies the monic degree-m annihilator of T(1..2m) unique, which
    makes it p; where it cannot, p comes from ``char_poly`` of the
    literal matrix (Faddeev-LeVerrier).
    """
    matrix = recurrence_matrix(m)
    weights = footprint_weights(m)
    totals = [sum(w * c for w, c in zip(weights, counts))
              for counts in islice(count_columns(matrix), 2 * m)]
    polynomial = sequence_annihilator(totals)
    return polynomial if polynomial is not None else char_poly(matrix)


def profile_table(m: int, k_max: int) -> list[tuple[int, ...]]:
    """The count columns for horizons 1..k_max (index k-1 holds horizon k)."""
    if k_max < 1:
        raise ValueError("horizon must be at least 1")
    return list(islice(count_columns(recurrence_matrix(m)), k_max))


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
