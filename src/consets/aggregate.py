"""Headline quantities for the product of a complete layer and a path.

Every connected set spans a contiguous block of layers, and blocks of
equal length are interchangeable, so the graph-level count and order sum
are triangular-weighted sums of the per-horizon layer quantities, which
``cell_stream`` keeps as running prefix sums.  ``evaluate`` returns all
four quantities of one cell as one ``ProductResult``, which derives the
average order and density from N and S as exact reduced fractions: a gcd
for the average, and a gcd with mn for the density, taken when it is
read.  The engine builds its rows with ``ProductResult.of_cell``: at
m = 2 the average's gcd comes from ``ladder_gcd_multiple``, a proven
multiple of about 4 log2(n) bits, by two remainders, and every other m
takes the one big gcd of N and S.  The CLI prints every row, ``ladder``
included, through this engine.

One cell has one walk, finished by a jump only where the recurrence
decides, by one of three routes:

- n <= 4m+4, every m: the n-th item of ``cell_stream``.
- n >= 4m+5, 2 <= m <= P_JUMP_MAX_M: ``_p_jumper``, the jump modulo p,
  the layer matrix's characteristic polynomial of degree m, read off the
  counts of the first 2m items.  It powers x to about n/2 modulo p and
  reads N(n) and S(n) off integral functionals (one of them through a
  Hermite lift to p^2), with two exact divisions at the end.  Its setup
  walks 2m+1 column pairs and solves once for g = R p'^-1 mod p, whose
  R has about 0.24 m^3 bits; past the cut-off that solve costs more at
  n = 4m+5 than the whole jump modulo Q.
- n >= 4m+5, m = 1 or m > P_JUMP_MAX_M: ``_jumper``, the jump modulo Q.
  ``annihilator`` gives N and S one linear recurrence of degree
  d = 2m+2, whose polynomial Q it builds from p.  The jump powers x to
  about n/2 modulo Q and reads N(n) and S(n) off a Hankel form over the
  stream's first 2d = 4m+4 items.  Below n = 4m+5 that half power is
  never reduced mod Q, and the form only reads a streamed item back: a
  prefix of the walk the jump itself takes.  At m = 1, p = x - 1 has
  p(1) = 0, so only this jump serves it.

Each jump takes O(log n) polynomial squarings; modulo p a squaring is
m(m+1)/2 big products, modulo Q (2m+2)(2m+3)/2.  Both jumps are exact
for every n >= 1, so ``verify.jump_checks`` holds each against the
stream at the same horizons.

The stream needs ``layers`` and ``records`` alone.  ``annihilator`` and
both jumps import the polynomial arithmetic of ``exactmath`` when they
run, so a process that only streams (a table, or a cell up to 4m+4)
never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import accumulate, islice, pairwise
from math import gcd
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterator

from .layers import column_stream
from .records import FrozenRecord

if TYPE_CHECKING:
    from .exactmath import IntPolynomial

#: Widest layer whose cells ``evaluate`` jumps modulo p; wider ones jump
#: modulo Q.  At n = 4m+5, setup and jump together, modulo p took
#: 0.85-0.96 of the time modulo Q for m = 2..12 (medians, each of seven
#: interleaved rounds below 1), 0.96 at m = 13 with rounds above 1, and
#: 1.02 at m = 14: the solve for g and R, about 0.24 m^3 bits, outgrows
#: the columns and the squarings it saves (CPython 3.11, 2-vCPU Xeon VM).
P_JUMP_MAX_M = 12

#: Fraction(numerator, denominator) of a coprime pair, denominator > 0,
#: without the gcd that Fraction would take again: Python 3.12 on has a
#: private constructor for it, earlier ones the keyword _normalize=False;
#: a Fraction with neither reduces as usual.
if hasattr(Fraction, "_from_coprime_ints"):
    _coprime_fraction = Fraction._from_coprime_ints
elif "_normalize" in Fraction.__new__.__code__.co_varnames:
    _coprime_fraction = partial(Fraction, _normalize=False)
else:
    _coprime_fraction = Fraction


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
    """n -> (N(n), S(n)) by the jump modulo Q, off the first 4m+4 items
    of ``cell_stream``, one column walk that gives both the Hankel terms
    and Q.

    Those items are the Hankel terms a(1..2d), d = 2m+2, the degree of Q.
    Their counts' second differences are the totals
    T(k) = N(k) - 2N(k-1) + N(k-2), with N(0) = N(-1) = 0, and from
    T(1..2m) ``exactmath.sequence_annihilator`` gives p, certified or
    refused, as it does for ``layers.layer_polynomial``.
    The functional x^j -> a(j+1) vanishes on multiples of Q, and
    x^(n-1) = x^o s^2 mod Q with s = x^h mod Q, n - 1 = 2h + o, so
    a(n) = sum_i s_i sum_j s_j a(i+j+o+1): one powering to the half power
    serves both sums, and the full square is never formed.  Below
    n = 2d+1 the half power is unreduced and the form reads a(n) back,
    so ``evaluate`` jumps only from n = 2d+1 = 4m+5 on.
    """
    from .exactmath import sequence_annihilator, x_power_mod

    hankel = list(zip(*islice(cell_stream(m), 4 * m + 4)))
    counts = hankel[0]
    totals = [a - 2 * b + c for a, b, c in zip(counts[:2 * m], (0, *counts), (0, 0, *counts))]
    modulus = annihilator(sequence_annihilator(totals))

    def jump(n: int) -> tuple[int, int]:
        half, odd = divmod(n - 1, 2)
        s = x_power_mod(half, modulus)
        return tuple(sum(si * sum(sj * a for sj, a in zip(s, column[odd + i:]))
                         for i, si in enumerate(s))
                     for column in hankel)

    return jump


def _p_jumper(m: int) -> Callable[[int], tuple[int, int]]:
    """n -> (N(n), S(n)) by the jump modulo p, the layer polynomial of
    degree m, off the first 2m items of ``cell_stream``: 2m+1 column
    pairs, whose second differences are the totals T(1..2m) and
    U(1..2m), and p from T by ``exactmath.sequence_annihilator``.

    T obeys p and U obeys p^2 from k = 1 on, so with l(x^j) = T(j+1) and
    e = n+1, N(n) = sum_k (n+1-k) T(k) is l applied to
    (x^e - e x + n)/(x-1)^2.  With h = (p - p(1))/(x-1), integral,
    (x-1)^-1 = -h/p(1) mod p, so
        p(1)^2 N(n) = phi(x^e) - e phi(x) + n phi(1),  phi(f) = l(h^2 f).
    As (x-1) h = -p(1) mod p, the values phi(x^k) are two running sums
    of the T(k), scaled by -p(1), after one dot product with h each: no
    solve.  Likewise modulo p^2, with H = (p^2 - p(1)^2)/(x-1) and U,
        p(1)^4 S(n) = chi(x^e mod p^2) - e chi(x) + n chi(1).
    Differentiating x^e = q p + r, r = x^e mod p, lifts it to
    x^e mod p^2 = r + p t with t = (e x^-1 r - r') g/R mod p, where
    g p' = R mod p (``exactmath.inverse_mod``, R = +-Res(p, p') != 0)
    and x^-1 mod p is integral, as p(0) = +-det A = +-1.  So with
    omega(f) = chi(p g f),
        R p(1)^4 S(n) = R chi(r) + e omega(x^-1 r) - omega(r')
                        - R (e chi(x) - n chi(1)).
    Both read-outs are linear in r, so each is a Hankel form over its
    values on x^k mod p, k < 2m, at the half power s = x^(e div 2) mod p,
    as in ``_jumper`` (Fiduccia 1985): one powering serves N and S, and
    two exact divisions finish them.  Setup refuses p(1) = 0, as at
    m = 1 (p = x - 1), and R = 0, a p with a repeated root; these, and an
    inexact division, raise ArithmeticError.
    """
    from .exactmath import inverse_mod, poly_square, sequence_annihilator, x_power_mod

    counts, totals = zip(*islice(cell_stream(m), 2 * m))
    count_totals, order_totals = ([a - 2 * b + c for a, b, c in zip(sums, (0, *sums), (0, 0, *sums))]
                                  for sums in (counts, totals))
    p = sequence_annihilator(count_totals)
    c = p.coefficients
    at_one = sum(c)
    if not at_one:
        raise ArithmeticError(f"p(1) = 0 at m={m}: no jump modulo p")
    resultant, g = inverse_mod([k * a for k, a in enumerate(c)][1:], p)
    if not resultant:
        raise ArithmeticError(f"p has a repeated root at m={m}: no jump modulo p")

    def lifted(h, terms, step):
        # l(h x^j) for j < len(terms), with l(x^i) = terms[i] and
        # (x-1) h = -step modulo what l vanishes on
        return list(accumulate((-step * t for t in terms[:-1]), initial=sum(map(mul, h, terms))))

    def extended(values):
        # a linear functional's values on x^k mod p, given for k < m, for k < 2m
        values = list(values)
        while len(values) < 2 * m:
            values.append(-sum(map(mul, c, values[-m:])))
        return values

    h = list(accumulate(reversed(c[1:])))[::-1]
    phi = lifted(h, lifted(h, count_totals, at_one), at_one)
    big_h = list(accumulate(reversed(poly_square(c)[1:])))[::-1]
    chi = lifted(big_h, lifted(big_h, order_totals, at_one ** 2), at_one ** 2)
    psi = extended(sum(map(mul, c, chi[j:])) for j in range(m))  # chi(p x^k)
    omega = [sum(map(mul, g, psi[j:])) for j in range(m)]
    # omega(x^(k-1)) for k < 2m, with x^-1 = -p(0) (p - p(0))/x mod p
    shifted = [-c[0] * sum(map(mul, c[1:], omega)), *extended(omega)[:-1]]
    # R chi(r) - omega(r') on r = x^k mod p: S's read-out less its e-term
    steady = extended(resultant * chi[k] - k * shifted[k] for k in range(m))
    count_scale, total_scale = at_one ** 2, resultant * at_one ** 4

    def jump(n: int) -> tuple[int, int]:
        e = n + 1
        half, odd = divmod(e, 2)
        s = x_power_mod(half, p)
        count_form, total_form = (sum(si * sum(map(mul, s, values[odd + i:])) for i, si in enumerate(s))
                                  for values in (phi, [a + e * b for a, b in zip(steady, shifted)]))
        count, count_rest = divmod(count_form - e * phi[1] + n * phi[0], count_scale)
        total, total_rest = divmod(total_form - resultant * (e * chi[1] - n * chi[0]), total_scale)
        if count_rest or total_rest:
            raise ArithmeticError(f"jump modulo p inexact at m={m} n={n}")
        return count, total

    return jump


def ladder_gcd_multiple(n: int) -> int:
    """D(n) = 288n^4 + 1296n^3 + 2258n^2 + 1300n + 25(1 - (-1)^n), a
    positive multiple of gcd(N(n), S(n)) at m = 2, for every n >= 1.

    ``ladder._row`` reads the cell's count and order sum off (H, P) =
    (H(n), P(n)), the coordinates of u^n = H + P sqrt(2), u = 1 + sqrt(2):
        2N = 7H + 10P - (4n + 7),
        4S = (21n - 32) H + (30n - 45) P + 10n + 32,
    and the norm of u^n gives H^2 - 2P^2 = (-1)^n.  Modulo a common
    divisor g of N and S, the first two are a linear system in (H, P)
    of determinant 7(30n - 45) - 10(21n - 32) = 5, which its adjugate
    solves:
        5H = 120n^2 + 130n + 5,  5P = -(84n^2 + 89n)  (mod g).
    Then 25(H^2 - 2P^2) = 25(-1)^n reads
        (120n^2 + 130n + 5)^2 - 2(84n^2 + 89n)^2 - 25(-1)^n = D(n) = 0
    modulo g.  Every coefficient of D is positive, so D(n) > 0, and
    gcd(N, S) = gcd(D, N mod D, S mod D): two remainders by a number of
    about 4 log2(n) + 8 bits (56 at n = 3814, 81 at 3·10^5) in place of
    a gcd of two numbers of about 1.27 n bits each.  The argument holds
    for the cell's own N and S only; of other integers D(n) need not be
    a multiple.
    """
    return (((288 * n + 1296) * n + 2258) * n + 1300) * n + 50 * (n & 1)


class ProductResult(FrozenRecord):
    """All four headline quantities for one (m, n) cell: built from the
    count N and order total S, it holds the average S/N as an exact
    reduced fraction, and derives the density A/(mn) from it when read,
    so the two always agree.  1 <= A <= mn is checked on the integers,
    as N <= S <= mn·N, before the gcd.  An average outside that range is
    an engine fault, so it raises ArithmeticError, not the ValueError of
    a bad argument.

    ``ProductResult(m, n, count, total)`` takes any integers and reduces
    A by Fraction(total, count), one gcd of two big numbers.  The engine
    builds its rows with ``of_cell``, which reduces the cell's own N and
    S at m = 2 from a small multiple of their gcd.  Either kind pickles
    as ``ProductResult(m, n, count, total)``, an equal record."""

    __slots__ = ("m", "n", "count", "total", "average")

    def __init__(self, m: int, n: int, count: int, total: int):
        self._hold(m, n, count, total, None)

    @classmethod
    def of_cell(cls, m: int, n: int, count: int, total: int) -> ProductResult:
        """The record ``ProductResult(m, n, count, total)`` gives, on the
        premise that count and total are the cell's own N and S.

        At m = 2 gcd(N, S) then divides ``ladder_gcd_multiple(n)``, so A
        is reduced by two remainders and a gcd of small numbers, and built
        from the coprime pair without a second gcd.  At m >= 3, N and S
        are two linear forms in the m coordinates of a unit, whose norm
        adds only one equation, so nothing bounds their gcd, and such a
        cell takes the big gcd, as m = 1 does."""
        result = cls.__new__(cls)
        result._hold(m, n, count, total, ladder_gcd_multiple(n) if m == 2 else None)
        return result

    def _hold(self, m: int, n: int, count: int, total: int, multiple: int | None) -> None:
        """Set the fields, A reduced by Fraction's gcd, or by one of
        ``multiple``, N mod it and S mod it where a multiple of gcd(N, S)
        is given."""
        # 1 <= A <= mn also gives 0 < D <= 1.
        if not count <= total <= m * n * count:
            raise ArithmeticError("average outside [1, m*n]")
        if multiple is None:
            average = Fraction(total, count)
        else:
            common = gcd(multiple, count % multiple, total % multiple)
            average = _coprime_fraction(total // common, count // common)
        setter = object.__setattr__
        setter(self, "m", m)
        setter(self, "n", n)
        setter(self, "count", count)
        setter(self, "total", total)
        setter(self, "average", average)

    @property
    def density(self) -> Fraction:
        """D = A/(mn), reduced: a gcd of A's numerator with mn, which is small."""
        return self.average / (self.m * self.n)

    def __reduce__(self):
        return type(self), (self.m, self.n, self.count, self.total)


def evaluate(m: int, n: int) -> ProductResult:
    """Count, total order, average, and density for one cell: the n-th
    stream item up to n = 4m+4, the jump's Hankel terms, and a jump
    above, where Q decides: modulo p for 2 <= m <= P_JUMP_MAX_M, modulo Q
    otherwise."""
    if m < 1:
        raise ValueError("layer size m must be at least 1")
    if n < 1:
        raise ValueError("path length n must be at least 1")
    if n > 4 * m + 4:
        jumper = _p_jumper if 2 <= m <= P_JUMP_MAX_M else _jumper
        return ProductResult.of_cell(m, n, *jumper(m)(n))
    return ProductResult.of_cell(m, n, *next(islice(cell_stream(m), n - 1, None)))
