"""Headline quantities for the product of a complete layer and a path.

Every connected set spans a contiguous block of layers, and blocks of
equal length are interchangeable, so the graph-level count and order sum
are triangular-weighted sums of the per-horizon layer quantities, which
``cell_stream`` keeps as running prefix sums.  ``evaluate`` returns all
four quantities of one cell as one ``ProductResult``, which derives the
average order and density from N and S as exact reduced fractions.  The
CLI prints every row, ``ladder`` included, through this engine.

One cell has two engines, split where the recurrence itself splits
them.  ``annihilator`` gives N and S one linear recurrence of degree
2m+2, so for n <= 2m+2 the answer is the n-th item of ``cell_stream``, a
seed of that recurrence; above that, ``_jumper`` reads N(n) and S(n) off
those seeds in O(log n) polynomial squarings.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, pairwise
from typing import Callable, Iterator

from .exactmath import IntPolynomial, poly_mul, sequence_annihilator, x_power_mod
from .layers import column_stream, layer_polynomial
from .records import FrozenRecord


def cell_stream(m: int) -> Iterator[tuple[int, int]]:
    """Yield (N(n), S(n)), the count and order total, for n = 1, 2, ...

    With T(k) and U(k) the count and order sum of the sets spanning
    exactly k given layers, N(n) = sum_k (n+1-k) T(k), so
    N(n) = N(n-1) + sum_{k<=n} T(k); likewise S with U.  The last row of
    the layer matrix is the weight row (C(m,1), ..., C(m,m)), so the next
    column pair holds both totals in its last entries: T(k) = c_(k+1)[m]
    and U(k) = s_(k+1)[m] - m c_(k+1)[m], the order step's i c term at
    i = m taken back out.  Past the column step, each item costs O(1)
    big-integer additions and one small multiple.
    """
    count = total = span_count = span_total = 0
    for _, (counts, orders) in pairwise(column_stream(m)):
        span_count += counts[-1]
        span_total += orders[-1] - m * counts[-1]
        count += span_count
        total += span_total
        yield count, total


def annihilator(p: IntPolynomial) -> IntPolynomial:
    """Q = p^2 (x-1)^2, for p the characteristic polynomial of the layer
    matrix.

    The count columns obey p (Cayley-Hamilton), so the per-horizon count
    totals do; the (order, count) column pair advances by the block matrix
    [[A, D A], [0, A]] with D = diag(1..m), whose characteristic polynomial
    is p^2, so the order totals obey p^2.  Each running prefix sum adds a
    factor x - 1.  Q, monic of degree 2m+2, thus annihilates N and S from
    n = 1 on.  ``verify.jump_checks`` holds the jump against the stream,
    and ``verify.charpoly_checks`` holds p against Faddeev-LeVerrier.
    """
    square = poly_mul(p.coefficients, p.coefficients)
    return IntPolynomial(poly_mul(square, (1, -2, 1)))


def _jumper(m: int) -> Callable[[int], tuple[int, int]]:
    """n -> (N(n), S(n)) by the recurrence jump, off one walk of the first
    2m+2 items of ``cell_stream``.

    Those items are the seeds, and the per-horizon totals are the second
    differences of their counts, T(k) = N(k) - 2N(k-1) + N(k-2) with
    N(0) = N(-1) = 0.  p is the certified Berlekamp-Massey annihilator of
    T(1..2m), or ``layers.layer_polynomial`` where that certificate fails.
    With x^(n-1) = sum_j r_j x^j mod Q, a sequence a annihilated by Q
    has a(n) = sum_j r_j a(j+1); one powering serves both sums.
    """
    seeds = list(islice(cell_stream(m), 2 * m + 2))
    counts = [0, 0, *(count for count, _ in seeds[:2 * m])]
    totals = [a - 2 * b + c for a, b, c in zip(counts[2:], counts[1:], counts)]
    modulus = annihilator(sequence_annihilator(totals) or layer_polynomial(m))

    def jump(n: int) -> tuple[int, int]:
        remainder = x_power_mod(n - 1, modulus)
        return (sum(r * count for r, (count, _) in zip(remainder, seeds)),
                sum(r * total for r, (_, total) in zip(remainder, seeds)))

    return jump


class ProductResult(FrozenRecord):
    """All four headline quantities for one (m, n) cell: built from the
    count N and order total S, it derives the average S/N and the density
    S/(N·mn) once, as exact reduced fractions, so they always agree.  An
    average outside [1, mn] is an engine fault, so it raises
    ArithmeticError, not the ValueError of a bad argument."""

    __slots__ = ("m", "n", "count", "total", "average", "density")

    def __init__(self, m: int, n: int, count: int, total: int):
        average = Fraction(total, count)
        # 1 <= A <= mn also gives 0 < D <= 1.
        if not 1 <= average <= m * n:
            raise ArithmeticError("average outside [1, m*n]")
        for name, value in zip(self.__slots__,
                               (m, n, count, total, average, average / (m * n))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), (self.m, self.n, self.count, self.total)


def evaluate(m: int, n: int) -> ProductResult:
    """Count, total order, average, and density for one cell: the n-th
    stream item up to n = 2m+2, where it is a seed, and the jump above."""
    if m < 1:
        raise ValueError("layer size m must be at least 1")
    if n < 1:
        raise ValueError("path length n must be at least 1")
    if n > 2 * m + 2:
        return ProductResult(m, n, *_jumper(m)(n))
    return ProductResult(m, n, *next(islice(cell_stream(m), n - 1, None)))
