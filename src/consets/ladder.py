"""Closed forms for the two-layer case: the ladder graph.

With layers of size two, the per-horizon totals are the half-companion
Pell numbers 1, 1, 3, 7, 17, 41, ... and the single-vertex-footprint
counts are the Pell numbers 0, 1, 2, 5, 12, ...; both satisfy
x(k) = 2 x(k-1) + x(k-2).  Both are read off the powers of the unit
u = 1 + sqrt(2): u^k = H(k) + P(k)·sqrt(2), with H the half-companion
and P the Pell sequence, walked by additions since
u^(k+1) = (H + 2P) + (H + P)·sqrt(2).  The count and order sum of the
n-rung ladder, and the published ladder formula they must match, reduce
to the pair (H(n), P(n)).

These closed forms are a check, not an engine: ``verify`` compares them
with ``aggregate.cell_stream(2)``, which is what ``consets ladder``
prints.  The rows are exact integers (N, S), as every other route gives
them.  Nothing is cached.  They also prove the engine's m = 2 gcd: with
the norm H^2 - 2P^2 = (-1)^n they make every common divisor of N and S
divide D(n) = ``aggregate.ladder_gcd_multiple(n)``.  The proof is in
that function's docstring, since the engine never imports this module.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import islice
from typing import Iterator


def _pell_walk() -> Iterator[tuple[int, int]]:
    """(H(k), P(k)) for k = 0, 1, ..., stepping u^k -> u^(k+1) by additions."""
    h, p = 1, 0
    while True:
        yield h, p
        h, p = h + 2 * p, h + p


def _row(n: int, h: int, p: int) -> tuple[int, int]:
    """(count, order sum) of the n-rung ladder from (H(n), P(n)).

    With T(k) = H(k+1) = H(k) + 2 P(k) the two-layer total at horizon k,
    twice the count is T(n+2) - 4n - 7, with T(n+2) = H(n+3) = 7H + 10P;
    four times the order sum is (21n - 32) T(n) + (19 - 12n) P(n)
    + 10n + 32.  Both divisions are checked exact.
    """
    count, odd = divmod(7 * h + 10 * p - 4 * n - 7, 2)
    if odd:
        raise ArithmeticError(f"count numerator odd at n={n}")
    total, rest = divmod((21 * n - 32) * (h + 2 * p) + (19 - 12 * n) * p + 10 * n + 32, 4)
    if rest:
        raise ArithmeticError(f"order-sum numerator not divisible by 4 at n={n}")
    return count, total


def row_stream() -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """((count, order sum), (H(n), P(n))) of the n-rung ladder for
    n = 1, 2, ..., off the additions walk: each row with the pair it is
    read off, which the published formula takes too."""
    for n, (h, p) in enumerate(islice(_pell_walk(), 1, None), start=1):
        yield _row(n, h, p), (h, p)


def vince_average(n: int, h: int, p: int) -> Fraction:
    """Average order of the n-rung ladder from (H(n), P(n)) via the
    independently published ladder formula (Vince, J. Graph Theory 2021),
    stated over the Pell and half-companion Pell sequences directly:
    beta(n) = H, pell(n) = P and beta(n+3) = 7H + 10P."""
    numerator = 32 - 45 * p - 32 * h + n * (10 + 21 * h + 30 * p)
    return Fraction(numerator, 2 * (7 * h + 10 * p - 4 * n - 7))


def ladder_sum_identities() -> Iterator[tuple[tuple[str, int, int], ...]]:
    """The five prefix-sum closed forms for n = 1, 2, ..., each as a
    (name, direct sum, closed form) triple that holds when twice the sum
    equals the closed form.

    One walk of u^k gives every P and H value, and the direct sums run
    along it.  The pair is returned rather than compared so that a failing
    identity reports the two integers instead of raising on a non-exact
    halving.  The closed form for the plain Pell-tail sum uses total(n+2);
    the version with index n+3 fails direct summation already at n=1
    (5 vs 17).
    """
    walk = islice(_pell_walk(), 1, None)
    window = deque(islice(walk, 3), maxlen=4)
    sum_totals = sum_k_totals = sum_pell_tail = sum_k_pell_tail = sum_k2_totals = 0
    for n, power in enumerate(walk, start=1):
        window.append(power)  # u^n .. u^(n+3)
        # total(n + j) = H(n + j + 1) = total_j and pell(n + j) = pell_j
        (_, pell_0), (total_0, pell_1), (total_1, pell_2), (total_2, pell_3) = window
        sum_totals += total_0
        sum_k_totals += n * total_0
        sum_pell_tail += pell_2
        sum_k_pell_tail += n * pell_2
        sum_k2_totals += n * n * total_0
        yield (
            ("prefix sum of totals", sum_totals, total_1 + total_0 - 4),
            ("weighted prefix sum of totals", sum_k_totals,
             n * total_2 - (n + 1) * total_1 + 3),
            ("prefix sum of shifted pell", sum_pell_tail, total_2 - 7),
            ("weighted prefix sum of shifted pell", sum_k_pell_tail,
             2 * (n - 1) * pell_2 + (3 * n - 1) * pell_1 + n * pell_0 + 5),
            ("square-weighted prefix sum of totals", sum_k2_totals,
             (2 * n * n + 2 * n + 1) * pell_2 + (1 - 2 * n) * pell_3 - 7),
        )
