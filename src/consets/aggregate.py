"""Headline quantities for the product of a complete layer and a path.

Every connected set spans a contiguous block of layers, and blocks of
equal length are interchangeable, so the graph-level count and order sum
are triangular-weighted sums of the per-horizon layer quantities, which
``cell_stream`` keeps as running prefix sums.  ``evaluate`` returns all
four quantities of one cell as one ``ProductResult``, which derives the
average order and density from N and S as exact reduced fractions.  The
CLI prints every row, ``ladder`` included, through this engine.

One cell has two engines.  Up to n = STREAM_MAX_PER_LAYER * m it takes
the n-th item of ``cell_stream``; above that, ``jump_sums`` reads N(n)
and S(n) off the first 2m+2 items through the linear recurrence that
``annihilator`` gives both sequences, in O(log n) polynomial squarings.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator

from .exactmath import IntPolynomial, poly_mul, x_power_mod
from .layers import column_stream, footprint_weights, layer_polynomial
from .records import FrozenRecord

#: Above n = STREAM_MAX_PER_LAYER * m a single cell jumps instead of
#: streaming.  This is the measured crossover: best of 5-7 alternating
#: in-process runs, Python 3.11 on a 2-vCPU Xeon VM, stream against jump
#: at n = 4m were 8.9 / 10.3 ms at m = 16, 39 / 38 ms at m = 24, 59 / 55 ms
#: at m = 30, 0.27 / 0.19 s at m = 40 and 0.78 / 0.48 s at m = 50; at
#: n = 5m the jump wins from m = 16 up.  Below m = 16 the stream wins up to
#: n = 5-8m, by at most 2 ms a cell.  The jump's fixed cost is p off 2m
#: streamed totals plus 2m+2 seed items, and the stream's grows with n^2.
STREAM_MAX_PER_LAYER = 4


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
    weights = footprint_weights(m)
    count = total = span_count = span_total = 0
    for counts, orders in column_stream(m):
        span_count += sum(w * c for w, c in zip(weights, counts))
        span_total += sum(w * s for w, s in zip(weights, orders))
        count += span_count
        total += span_total
        yield count, total


def annihilator(m: int) -> IntPolynomial:
    """Q = p^2 (x-1)^2, p the characteristic polynomial of the layer matrix.

    The count columns obey p (Cayley-Hamilton), so the per-horizon count
    totals do; the (order, count) column pair advances by the block matrix
    [[A, D A], [0, A]] with D = diag(1..m), whose characteristic polynomial
    is p^2, so the order totals obey p^2.  Each running prefix sum adds a
    factor x - 1.  Q, monic of degree 2m+2, thus annihilates N and S from
    n = 1 on.  p comes from ``layers.layer_polynomial``, which reads it
    off the streamed totals by multi-modular Berlekamp-Massey with an
    exact certificate; ``verify.jump_checks`` holds the jump against the
    stream, and ``verify.charpoly_checks`` holds p against Faddeev-LeVerrier.
    """
    p = layer_polynomial(m).coefficients
    return IntPolynomial(poly_mul(poly_mul(p, p), (1, -2, 1)))


def _jumper(m: int) -> Callable[[int], tuple[int, int]]:
    """n -> (N(n), S(n)) by the recurrence jump, with Q and its deg Q
    seed items of ``cell_stream`` computed once for this m.

    With x^(n-1) = sum_j r_j x^j mod Q, a sequence a annihilated by Q
    has a(n) = sum_j r_j a(j+1); one powering serves both sums.
    """
    modulus = annihilator(m)
    seeds = list(islice(cell_stream(m), modulus.degree))

    def jump(n: int) -> tuple[int, int]:
        remainder = x_power_mod(n - 1, modulus)
        return (sum(r * count for r, (count, _) in zip(remainder, seeds)),
                sum(r * total for r, (_, total) in zip(remainder, seeds)))

    return jump


def jump_sums(m: int, n: int) -> tuple[int, int]:
    """(N(n), S(n)) from the first deg Q items of ``cell_stream``."""
    _check_cell(m, n)
    return _jumper(m)(n)


def _sums(m: int, n: int) -> tuple[int, int]:
    if n > STREAM_MAX_PER_LAYER * m:
        return jump_sums(m, n)  # checks the cell itself
    _check_cell(m, n)
    return next(islice(cell_stream(m), n - 1, None))


class ProductResult(FrozenRecord):
    """All four headline quantities for one (m, n) cell: built from the
    count N and order total S, it derives the average S/N and the density
    S/(N·mn) once, as exact reduced fractions, so they always agree."""

    __slots__ = ("m", "n", "count", "total", "average", "density")

    def __init__(self, m: int, n: int, count: int, total: int):
        average = Fraction(total, count)
        # 1 <= A <= mn also gives 0 < D <= 1.
        if not 1 <= average <= m * n:
            raise ValueError("average outside [1, m*n]")
        for name, value in zip(self.__slots__,
                               (m, n, count, total, average, average / (m * n))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), (self.m, self.n, self.count, self.total)


def evaluate(m: int, n: int) -> ProductResult:
    """Count, total order, average, and density for one cell."""
    return ProductResult(m, n, *_sums(m, n))
