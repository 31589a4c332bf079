"""Layer-by-layer counting of connected vertex sets in K_m x P_n.

The product graph is a path of n complete layers of size m.  A connected
set that touches layers 1..k is classified by its footprint in layer k
(its intersection with that layer), and by symmetry only the footprint
size matters.  The m counts per layer advance by one integer matrix A, so
the whole count grid unrolls as a vector recurrence; the order sums ride
along in the same step.  A factors as L R, prefix sums after a Pascal
matrix with its rows reversed, so ``layer_step`` applies it by additions
alone and the production walks never build it.  ``count_columns`` is the
count walk; ``column_stream`` adds the order step to it.
``layer_polynomial`` and ``profile_table`` read count columns only, so
they walk ``count_columns`` and never advance an order column.  p, A's
characteristic polynomial, has one route, ``totals_polynomial``:
Berlekamp-Massey on the totals, certified exactly or refused.

``recurrence_matrix`` writes A out entry by entry, for the checks alone:
``verify`` holds the walks against it, and p against Faddeev-LeVerrier
on it, and it feeds the weighted powers and the order-sum reference sum.
Likewise ``weighted_sum`` weights a column by the binomial row, which the
engine never does: that row is A's last, so a column's total is the last
entry of the next column.  The walks need additions alone;
``totals_polynomial`` imports ``exactmath`` when it runs, and
``recurrence_matrix`` and ``weighted_powers`` import the literal matrix
class from ``recurrence``, so the stream loads neither.

Indices follow the combinatorics: layers and horizons k are 1-based, as
are footprint sizes i in 1..m.  Matrix indices stay 0-based.
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import comb
from operator import add, mul
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from .exactmath import IntPolynomial
    from .recurrence import IntMatrix


def footprint_weights(m: int) -> tuple[int, ...]:
    """(C(m,1), ..., C(m,m)): how many footprints share each size class."""
    if m < 1:
        raise ValueError("layer size must be at least 1")
    return tuple(comb(m, i) for i in range(1, m + 1))


def recurrence_matrix(m: int) -> IntMatrix:
    """The m x m matrix advancing footprint-class counts by one layer.

    Entry (i, j), 1-based, is C(m,j) - C(m-i,j): the number of j-vertex
    footprints in the previous layer adjacent to a fixed i-vertex footprint
    in the next one.  The last row is the plain binomial row.
    """
    from .recurrence import IntMatrix

    if m < 1:
        raise ValueError("layer size must be at least 1")
    return IntMatrix([[comb(m, j) - comb(m - i, j) for j in range(1, m + 1)]
                      for i in range(1, m + 1)])


def layer_step(column: Sequence[int]) -> tuple[int, ...]:
    """A c for the layer matrix A of order m = len(c), by additions only.

    C(m,j) - C(m-i,j) = sum_{t=1..i} C(m-t,j-1) (hockey stick), so A = L R
    with L the lower triangle of ones and R(t, j) = C(m-t, j-1), a Pascal
    matrix with its rows reversed.  R c is the binomial transform
    b_r = sum_k C(r,k) c_(k+1) read backwards, (R c)_t = b_(m-t); b_r leads
    the r-th row of the difference table that adds neighbouring entries,
    m(m-1)/2 additions in all.  L then takes prefix sums.
    """
    row = list(column)
    transformed = []
    while row:
        transformed.append(row[0])
        row = list(map(add, row, row[1:]))
    return tuple(accumulate(reversed(transformed)))


def count_columns(m: int, one=1) -> Iterator[tuple]:
    """Yield the count column for horizons k = 1, 2, ...: all ``one`` at k = 1,
    then c <- A c by ``layer_step``, additions alone, so ``one = Decimal(1)``
    walks the same counts as Decimals.  Only the current column is held."""
    if m < 1:
        raise ValueError("layer size must be at least 1")
    counts = (one,) * m
    while True:
        yield counts
        counts = layer_step(counts)


def column_stream(m: int, one=1) -> Iterator[tuple[tuple, tuple]]:
    """Yield the (count column, order column) pair for horizons k = 1, 2, ...

    The count column holds, for each footprint size i = 1..m, the number of
    connected sets of the k-layer product that meet every one of the first
    k-1 layers and occupy one fixed i-vertex footprint in layer k; the
    order column holds their summed orders.  At k = 1 they are all ones
    and (1, 2, ..., m).  The counts step by ``count_columns``; the orders
    by s <- A s + i c, from s = 0 before horizon 1, the i c term counting
    the vertices layer k itself contributes.  Only the current pair is held;
    its entries have the type of ``one``, as in ``count_columns``.
    """
    sizes = range(1, m + 1)
    orders = (0,) * m
    for counts in count_columns(m, one):
        orders = tuple(map(add, layer_step(orders), map(mul, sizes, counts)))
        yield counts, orders


def layer_polynomial(m: int) -> IntPolynomial:
    """The characteristic polynomial p of the layer matrix A, read off the
    per-horizon totals T(1..2m) of one ``count_columns`` walk.

    T(k) is the weight row times A^(k-1) times the ones column.  The last
    row of A is that weight row, so T(k) is the last entry of column k+1,
    and p annihilates the totals (Cayley-Hamilton).
    """
    return totals_polynomial([counts[-1] for counts in islice(count_columns(m), 1, 2 * m + 1)])


def totals_polynomial(totals: Sequence[int]) -> IntPolynomial:
    """p from the totals T(1..2m), however the caller came by them:
    ``sequence_annihilator`` certifies their monic degree-m annihilator
    unique, which makes it p, or else an ArithmeticError names the degree.
    ``layer_polynomial`` and both recurrence jumps take p from here."""
    from .exactmath import sequence_annihilator

    if (polynomial := sequence_annihilator(totals)) is None:
        raise ArithmeticError(f"Berlekamp-Massey did not certify p of degree {len(totals) // 2}")
    return polynomial


def profile_table(m: int, k_max: int) -> list[tuple[int, ...]]:
    """The count columns for horizons 1..k_max (index k-1 holds horizon k)."""
    if k_max < 1:
        raise ValueError("horizon must be at least 1")
    return list(islice(count_columns(m), k_max))


def weighted_sum(column: Sequence[int]) -> int:
    """A footprint-class column weighted by the binomial row: the sum over
    every footprint of the layer (the total at that horizon)."""
    return sum(w * c for w, c in zip(footprint_weights(len(column)), column))


def weighted_profile_sums(m: int) -> Iterator[tuple[int, ...]]:
    """For horizons k = 1, 2, ...: the binomial row dotted with each column
    i = 1..m of the (k-1)-th power of the literal matrix.

    By the symmetry of ``weighted_powers`` entry i equals C(m,i) times the
    size-i footprint count at horizon k.  The power is never materialized:
    each basis vector advances once per horizon.
    """
    matrix = recurrence_matrix(m)
    basis = [tuple(int(j == i) for j in range(m)) for i in range(m)]
    while True:
        yield tuple(weighted_sum(vector) for vector in basis)
        basis = [matrix.apply(vector) for vector in basis]


def weighted_powers(m: int) -> Iterator[IntMatrix]:
    """diag(C(m,1)..C(m,m)) times the k-th power of the literal matrix, for
    k = 1, 2, ..., one matrix product each.

    Their symmetry is what lets per-size counts stand in for per-footprint
    counts; the powers are materialized, so keep k small.
    """
    from .recurrence import IntMatrix

    matrix = recurrence_matrix(m)
    weighted = IntMatrix.diagonal(footprint_weights(m))
    while True:
        weighted = weighted @ matrix
        yield weighted
