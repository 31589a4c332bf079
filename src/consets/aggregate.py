"""Headline quantities for the product of a complete layer and a path.

Every connected set spans a contiguous block of layers, and blocks of
equal length are interchangeable, so the graph-level count and order sum
are triangular-weighted sums of the per-horizon layer quantities, which
``cell_stream`` keeps as running prefix sums.  ``evaluate`` returns all
four quantities of one cell as one ``ProductResult``, which derives the
average order and density from N and S as exact reduced fractions: one
big gcd for the average, and a gcd with mn for the density, taken when
it is read.  The CLI prints every row, ``ladder`` included, through this
engine.

One cell has one walk, finished by a jump only where the recurrence
decides.  ``annihilator`` gives N and S one linear recurrence of degree
d = 2m+2, whose polynomial Q it builds from p, the layer matrix's
characteristic polynomial, read off the counts of the same walk.
``_jumper`` powers x to about n/2 modulo Q, in O(log n) polynomial
squarings, and reads N(n) and S(n) off a Hankel form over the stream's
first 2d = 4m+4 items.  Below n = 4m+5 that half power is never reduced
mod Q, and the form only reads a streamed item back, so for n <= 4m+4
the answer is the n-th item of ``cell_stream``: a prefix of the walk the
jump itself takes.

The stream needs ``layers`` and ``records`` alone.  ``annihilator`` and
``_jumper`` import the polynomial arithmetic of ``exactmath`` when they
run, so a process that only streams (a table, or a cell up to 4m+4)
never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, pairwise
from typing import TYPE_CHECKING, Callable, Iterator

from .layers import column_stream, totals_polynomial
from .records import FrozenRecord

if TYPE_CHECKING:
    from .exactmath import IntPolynomial


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
    from .exactmath import IntPolynomial, poly_square

    c = p.coefficients
    return IntPolynomial(poly_square([a - b for a, b in zip((0, *c), (*c, 0))]))


def _jumper(m: int) -> Callable[[int], tuple[int, int]]:
    """n -> (N(n), S(n)) by the recurrence jump, off the first 4m+4 items
    of ``cell_stream``, one column walk that gives both the Hankel terms
    and Q.

    Those items are the Hankel terms a(1..2d), d = 2m+2, the degree of Q.
    Their counts' second differences are the totals
    T(k) = N(k) - 2N(k-1) + N(k-2), with N(0) = N(-1) = 0, and from
    T(1..2m) ``layers.totals_polynomial`` gives p, as it does for
    ``layers.layer_polynomial``.
    The functional x^j -> a(j+1) vanishes on multiples of Q, and
    x^(n-1) = x^o s^2 mod Q with s = x^h mod Q, n - 1 = 2h + o, so
    a(n) = sum_i s_i sum_j s_j a(i+j+o+1): one powering to the half power
    serves both sums, and the full square is never formed.  Below
    n = 2d+1 the half power is unreduced and the form reads a(n) back,
    so ``evaluate`` jumps only from n = 2d+1 = 4m+5 on.
    """
    from .exactmath import x_power_mod

    hankel = list(zip(*islice(cell_stream(m), 4 * m + 4)))
    counts = hankel[0]
    totals = [a - 2 * b + c for a, b, c in zip(counts[:2 * m], (0, *counts), (0, 0, *counts))]
    modulus = annihilator(totals_polynomial(m, totals))

    def jump(n: int) -> tuple[int, int]:
        half, odd = divmod(n - 1, 2)
        s = x_power_mod(half, modulus)
        return tuple(sum(si * sum(sj * a for sj, a in zip(s, column[odd + i:]))
                         for i, si in enumerate(s))
                     for column in hankel)

    return jump


class ProductResult(FrozenRecord):
    """All four headline quantities for one (m, n) cell: built from the
    count N and order total S, it holds the average S/N as an exact
    reduced fraction, the one big gcd of the cell, and derives the density
    A/(mn) from it when read, so the two always agree.  1 <= A <= mn is
    checked on the integers, as N <= S <= mn·N, before the gcd.  An average
    outside that range is an engine fault, so it raises ArithmeticError,
    not the ValueError of a bad argument."""

    __slots__ = ("m", "n", "count", "total", "average")

    def __init__(self, m: int, n: int, count: int, total: int):
        # 1 <= A <= mn also gives 0 < D <= 1.
        if not count <= total <= m * n * count:
            raise ArithmeticError("average outside [1, m*n]")
        setter = object.__setattr__
        setter(self, "m", m)
        setter(self, "n", n)
        setter(self, "count", count)
        setter(self, "total", total)
        setter(self, "average", Fraction(total, count))

    @property
    def density(self) -> Fraction:
        """D = A/(mn), reduced: a gcd of A's numerator with mn, which is small."""
        return self.average / (self.m * self.n)

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
