"""Headline quantities for the product of a complete layer and a path.

Every connected set spans a contiguous block of layers, and blocks of
equal length are interchangeable, so the graph-level count and order sum
are triangular-weighted sums of the per-horizon layer quantities, which
``cell_stream`` keeps as running prefix sums.  ``evaluate`` returns all
four quantities of one cell as one ``ProductResult``, which derives the
average order and density from N and S as exact reduced fractions.  The
CLI prints every row, ``ladder`` included, through this engine.

One cell has one walk, finished by a jump only where the recurrence
decides.  ``annihilator`` gives N and S one linear recurrence of degree
d = 2m+2, whose polynomial Q it builds from ``layers.layer_polynomial``.
``_jumper`` powers x to about n/2 modulo Q, in O(log n) polynomial
squarings, and reads N(n) and S(n) off a Hankel form over the stream's
first 2d = 4m+4 items.  Below n = 4m+5 that half power is never reduced
mod Q, and the form only reads a streamed item back, so for n <= 4m+4
the answer is the n-th item of ``cell_stream``: a prefix of the walk the
jump itself takes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, pairwise
from typing import Callable, Iterator

from .exactmath import IntPolynomial, poly_square, x_power_mod
from .layers import column_stream, layer_polynomial
from .records import FrozenRecord


def cell_stream(m: int, one=1) -> Iterator[tuple]:
    """Yield (N(n), S(n)), the count and order total, for n = 1, 2, ...

    With T(k) and U(k) the count and order sum of the sets spanning
    exactly k given layers, N(n) = sum_k (n+1-k) T(k), so
    N(n) = N(n-1) + sum_{k<=n} T(k); likewise S with U.  The last row of
    the layer matrix is the weight row (C(m,1), ..., C(m,m)), so the next
    column pair holds both totals in its last entries: T(k) = c_(k+1)[m]
    and U(k) = s_(k+1)[m] - m c_(k+1)[m], the order step's i c term at
    i = m taken back out.  Past the column step, each item costs O(1)
    big-integer additions and one small multiple.  The items have the type
    of ``one``: Decimal(1), in an exact context, gives the CLI's Decimal twin.
    """
    count = total = span_count = span_total = 0
    for _, (counts, orders) in pairwise(column_stream(m, one)):
        span_count += counts[-1]
        span_total += orders[-1] - m * counts[-1]
        count += span_count
        total += span_total
        yield count, total


def annihilator(p: IntPolynomial) -> IntPolynomial:
    """Q = (p (x-1))^2, for p the characteristic polynomial of the layer
    matrix: one difference pass over p's coefficients, then the squaring
    the jump's powering uses.

    The count columns obey p (Cayley-Hamilton), so the per-horizon count
    totals do; the (order, count) column pair advances by the block matrix
    [[A, D A], [0, A]] with D = diag(1..m), whose characteristic polynomial
    is p^2, so the order totals obey p^2.  Each running prefix sum adds a
    factor x - 1.  Q, monic of degree 2m+2, thus annihilates N and S from
    n = 1 on: the jump reduces its half power mod Q.
    ``verify.jump_checks`` holds the jump against the stream, and
    ``verify.charpoly_checks`` holds p against Faddeev-LeVerrier.
    """
    c = p.coefficients
    return IntPolynomial(poly_square([a - b for a, b in zip((0, *c), (*c, 0))]))


def _jumper(m: int) -> Callable[[int], tuple[int, int]]:
    """n -> (N(n), S(n)) by the recurrence jump, off one walk of the first
    4m+4 items of ``cell_stream`` and Q from ``layers.layer_polynomial``.

    Those items are the Hankel terms a(1..2d), d = 2m+2, the degree of Q.
    The functional x^j -> a(j+1) vanishes on multiples of Q, and
    x^(n-1) = x^o s^2 mod Q with s = x^h mod Q, n - 1 = 2h + o, so
    a(n) = sum_i s_i sum_j s_j a(i+j+o+1): one powering to the half power
    serves both sums, and the full square is never formed.  Below
    n = 2d+1 the half power is unreduced and the form reads a(n) back,
    so ``evaluate`` jumps only from n = 2d+1 = 4m+5 on.
    """
    hankel = list(zip(*islice(cell_stream(m), 4 * m + 4)))
    modulus = annihilator(layer_polynomial(m))

    def jump(n: int) -> tuple[int, int]:
        half, odd = divmod(n - 1, 2)
        s = x_power_mod(half, modulus)
        return tuple(sum(si * sum(sj * a for sj, a in zip(s, column[odd + i:]))
                         for i, si in enumerate(s))
                     for column in hankel)

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
    stream item up to n = 4m+4, the jump's Hankel terms, and the jump
    above, where Q decides."""
    if m < 1:
        raise ValueError("layer size m must be at least 1")
    if n < 1:
        raise ValueError("path length n must be at least 1")
    if n > 4 * m + 4:
        return ProductResult(m, n, *_jumper(m)(n))
    return ProductResult(m, n, *next(islice(cell_stream(m), n - 1, None)))
