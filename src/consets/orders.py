"""Order sums (total cardinalities) of the counted connected-set families.

Three independent evaluation paths are kept on purpose:

* the recursive step of ``layers.column_stream`` (production path,
  O(k m^2) additions by the factored layer step), listed by
  ``order_table``,
* the literal matrix-sum formula it unrolls (reference path),
* a convolution over the count columns (no order column at all).

They must agree exactly; the verification suite and the tests hold them
against each other.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

from .layers import column_stream, footprint_weights, recurrence_matrix, weighted_sum
from .recurrence import IntMatrix


def order_table(m: int, k_max: int) -> list[tuple[int, ...]]:
    """The order columns for horizons 1..k_max (index k-1 holds horizon k)."""
    if k_max < 1:
        raise ValueError("horizon must be at least 1")
    return [orders for _, orders in islice(column_stream(m), k_max)]


def order_column_direct(m: int, k: int) -> tuple[int, ...]:
    """Reference path: evaluate the order-sum column from the literal sum
    of k matrix products A^(k-s-1) B A^s applied to all-ones, s = 0..k-1,
    with B = diag(1, ..., m) weighting each footprint class by its size.

    O(k^2 m^2) scalar work; meant for cross-validation at small k.
    """
    if m < 1:
        raise ValueError("layer size must be at least 1")
    if k < 1:
        raise ValueError("horizon must be at least 1")
    matrix = recurrence_matrix(m)
    ones = (1,) * m
    total = (0,) * m
    for s in range(k):
        vector = ones
        for _ in range(s):
            vector = matrix.apply(vector)
        vector = tuple(i * v for i, v in enumerate(vector, start=1))
        for _ in range(k - s - 1):
            vector = matrix.apply(vector)
        total = tuple(t + v for t, v in zip(total, vector))
    return total


def _self_convolution(counts: Sequence[tuple[int, ...]], i: int, k: int) -> int:
    """sum_{s=1..k} count(i, s) * count(i, k+1-s) over the count columns."""
    return sum(counts[s - 1][i - 1] * counts[k - s][i - 1] for s in range(1, k + 1))


def layer_order_sum_convolution(k: int, counts: Sequence[tuple[int, ...]]) -> int:
    """Order sum over all sets meeting k layers, from counts alone.

    Total = m*k*(count of such sets) minus, for every footprint size
    i < m, the weighted convolution of the size-i count sequence with
    itself: each term prices the vertices missing from the layers where
    the set's footprint is smaller than full.  ``counts`` holds the count
    columns for horizons 1..k or beyond, as ``profile_table`` lists them;
    their length is the layer size m.
    """
    m = len(counts[0])
    if len(counts) < k:
        raise ValueError(f"count columns reach horizon {len(counts)}, shorter than {k}")
    if k < 1:
        raise ValueError("horizon must be at least 1")
    weights = footprint_weights(m)
    total = m * k * weighted_sum(counts[k - 1])
    for i in range(1, m):
        total -= weights[i - 1] * (m - i) * _self_convolution(counts, i, k)
    return total


def convolution_identity_holds(i: int, k: int, counts: Sequence[tuple[int, ...]]) -> bool:
    """Check the bridge between the matrix and convolution paths.

    Left side: binomial row dotted with sum_{s=0}^{k-1} A^(k-s-1) E_ii A^s
    applied to all-ones, with E_ii the (i,i) matrix unit, computed from
    literal matrix products.  Right side: C(m,i) times the convolution of
    the size-i count sequence with itself, read off count columns of
    layer size m = len(counts[0]).  True iff they agree.
    """
    m = len(counts[0])
    if not 1 <= i <= m:
        raise ValueError(f"footprint size {i} outside 1..{m}")
    if len(counts) < k:
        raise ValueError("count columns do not cover the requested cell")
    matrix = recurrence_matrix(m)
    powers = [IntMatrix.identity(m)]
    for _ in range(k - 1):
        powers.append(matrix @ powers[-1])
    unit = IntMatrix.unit(m, i - 1, i - 1)
    accumulated = IntMatrix.zero(m)
    for s in range(k):
        accumulated = accumulated + powers[k - s - 1] @ unit @ powers[s]
    vector = accumulated.apply((1,) * m)
    lhs = weighted_sum(vector)
    rhs = footprint_weights(m)[i - 1] * _self_convolution(counts, i, k)
    return lhs == rhs
