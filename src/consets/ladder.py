"""Closed forms for the two-layer case: the ladder graph.

With layers of size two, the per-horizon totals are the half-companion
Pell numbers 1, 1, 3, 7, 17, 41, ... and the single-vertex-footprint
counts are the Pell numbers 0, 1, 2, 5, 12, ...; both satisfy
x(k) = 2 x(k-1) + x(k-2).  Both are read off one power of the unit
u = 1 + sqrt(2): u^k = H(k) + P(k)·sqrt(2), with H the half-companion
and P the Pell sequence.  The count and order sum of the n-rung ladder,
and the published ladder formula they must match, reduce to the pair
(H(n), P(n)): the shifted terms come by additions, since
u^(k+1) = (H + 2P) + (H + P)·sqrt(2).

A single n takes one power, O(log n) products, through QuadInt (exact,
never floating point); ``row_stream`` walks the powers by additions
only.  Both feed the same closed-form evaluator, which yields two
integers, the count N and the order sum S, as every other route does.
A caller who wants the average and density builds one
``aggregate.ProductResult`` from them, as the CLI does:
``ProductResult.from_sums(2, n, *ladder_row(n))`` equals
``aggregate.evaluate(2, n)``.  Nothing is cached.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .exactmath import SILVER_UNIT
from .reporting import Check


def _unit_power(k: int) -> tuple[int, int]:
    """(H(k), P(k)), the rational and sqrt(2) parts of (1 + sqrt(2))^k;
    a negative k raises ValueError."""
    power = SILVER_UNIT ** k
    return power.a, power.b


def _check_rungs(n: int) -> None:
    if n < 1:
        raise ValueError("rung count must be at least 1")


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


def ladder_row(n: int) -> tuple[int, int]:
    """(count, order sum) of the n-rung ladder from one power of u."""
    _check_rungs(n)
    return _row(n, *_unit_power(n))


def row_stream() -> Iterator[tuple[int, int]]:
    """``ladder_row(n)`` for n = 1, 2, ..., stepping u^n -> u^(n+1) by additions."""
    n, h, p = 1, 1, 1
    while True:
        yield _row(n, h, p)
        n, h, p = n + 1, h + 2 * p, h + p


def vince_average(n: int) -> Fraction:
    """Average order via the independently published ladder formula,
    stated over the Pell and half-companion Pell sequences directly:
    beta(n) = H, pell(n) = P and beta(n+3) = 7H + 10P."""
    _check_rungs(n)
    beta, pell_n = _unit_power(n)
    numerator = (32 - 45 * pell_n - 32 * beta
                 + n * (10 + 21 * beta + 30 * pell_n))
    return Fraction(numerator, 2 * (7 * beta + 10 * pell_n - 4 * n - 7))


def ladder_sum_identities(n: int) -> tuple[Check, ...]:
    """Check the five prefix-sum closed forms against direct summation.

    Every P and H value comes from one walk of u^k, k = 0..n+3.  Each
    comparison is cross-multiplied so a failing identity reports the
    two integers instead of raising on a non-exact halving.  The closed
    form for the plain Pell-tail sum uses total(n+2); the version
    with index n+3 fails direct summation already at n=1 (5 vs 17).
    """
    _check_rungs(n)
    where = f"n={n}"
    halves, pells = [1], [0]
    for _ in range(n + 3):
        h, p = halves[-1], pells[-1]
        halves.append(h + 2 * p)
        pells.append(h + p)

    def total(k: int) -> int:
        return halves[k + 1]

    def pell(k: int) -> int:
        return pells[k]

    sum_totals = sum(total(k) for k in range(1, n + 1))
    sum_k_totals = sum(k * total(k) for k in range(1, n + 1))
    sum_pell_tail = sum(pell(k + 2) for k in range(1, n + 1))
    sum_k_pell_tail = sum(k * pell(k + 2) for k in range(1, n + 1))
    sum_k2_totals = sum(k * k * total(k) for k in range(1, n + 1))

    checks = (
        Check("prefix sum of totals", where,
              2 * sum_totals == total(n + 1) + total(n) - 4,
              f"2*{sum_totals} vs {total(n + 1) + total(n) - 4}"),
        Check("weighted prefix sum of totals", where,
              2 * sum_k_totals == n * total(n + 2) - (n + 1) * total(n + 1) + 3,
              f"2*{sum_k_totals} vs {n * total(n + 2) - (n + 1) * total(n + 1) + 3}"),
        Check("prefix sum of shifted pell", where,
              2 * sum_pell_tail == total(n + 2) - 7,
              f"2*{sum_pell_tail} vs {total(n + 2) - 7}"),
        Check("weighted prefix sum of shifted pell", where,
              2 * sum_k_pell_tail == (2 * (n - 1) * pell(n + 2)
                                      + (3 * n - 1) * pell(n + 1)
                                      + n * pell(n) + 5),
              f"2*{sum_k_pell_tail} vs "
              f"{2 * (n - 1) * pell(n + 2) + (3 * n - 1) * pell(n + 1) + n * pell(n) + 5}"),
        Check("square-weighted prefix sum of totals", where,
              2 * sum_k2_totals == ((2 * n * n + 2 * n + 1) * pell(n + 2)
                                    + (1 - 2 * n) * pell(n + 3) - 7),
              f"2*{sum_k2_totals} vs "
              f"{(2 * n * n + 2 * n + 1) * pell(n + 2) + (1 - 2 * n) * pell(n + 3) - 7}"),
    )
    return checks
