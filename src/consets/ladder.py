"""Closed forms for the two-layer case: the ladder graph.

With layers of size two, the per-horizon totals are the half-companion
Pell numbers 1, 1, 3, 7, 17, 41, ... and the single-vertex-footprint
counts are the Pell numbers 0, 1, 2, 5, 12, ...; both satisfy
x(k) = 2 x(k-1) + x(k-2).  Both are read off one power of the unit
u = 1 + sqrt(2): u^k = H(k) + P(k)·sqrt(2), with H the half-companion
and P the Pell sequence.  Everything downstream (counts, averages,
densities, and the published ladder formula they must match) reduces to
the pair (H(n), P(n)): the shifted terms come by additions, since
u^(k+1) = (H + 2P) + (H + P)·sqrt(2).

A single n takes one power, O(log n) products, through QuadInt (exact,
never floating point); ``row_stream`` walks the powers by additions
only.  Both feed the same closed-form evaluator, and nothing is cached.
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


def pell(k: int) -> int:
    """k-th Pell number; equals the single-vertex-footprint count at horizon k."""
    return _unit_power(k)[1]


def half_companion(k: int) -> int:
    """k-th half-companion Pell number (1, 1, 3, 7, 17, ...)."""
    return _unit_power(k)[0]


def layer_total(k: int) -> int:
    """Two-layer-case total at horizon k, i.e. half_companion(k+1) = H(k) + 2 P(k).

    Index 0 is the backwards extension (value 1), which the recurrence,
    the prefix-sum identities, and the published ladder formula all need.
    """
    h, p = _unit_power(k)
    return h + 2 * p


def _check_rungs(n: int) -> None:
    if n < 1:
        raise ValueError("rung count must be at least 1")


def _count_numerator(n: int, h: int, p: int) -> int:
    """Twice the count: layer_total(n+2) - 4n - 7, with
    layer_total(n+2) = H(n+3) = 7H + 10P."""
    return 7 * h + 10 * p - 4 * n - 7


def _order_numerator(n: int, h: int, p: int) -> int:
    """Four times the order sum: (21n - 32) layer_total(n) + (19 - 12n) P(n) + 10n + 32."""
    return (21 * n - 32) * (h + 2 * p) + (19 - 12 * n) * p + 10 * n + 32


def _count(n: int, numerator: int) -> int:
    if numerator % 2 != 0:
        raise ArithmeticError(f"count numerator odd at n={n}")
    return numerator // 2


def _order_sum(n: int, numerator: int) -> int:
    if numerator % 4 != 0:
        raise ArithmeticError(f"order-sum numerator not divisible by 4 at n={n}")
    return numerator // 4


def _row(n: int, h: int, p: int) -> tuple[int, int, Fraction]:
    """(count, order sum, average) of the n-rung ladder from (H(n), P(n)).

    The average's denominator is 2*(layer_total(n+2) - 4n - 7), i.e. four
    times the count, which is what the numerator (four times the order
    sum) requires.
    """
    count_numerator = _count_numerator(n, h, p)
    order_numerator = _order_numerator(n, h, p)
    return (_count(n, count_numerator), _order_sum(n, order_numerator),
            Fraction(order_numerator, 2 * count_numerator))


def ladder_row(n: int) -> tuple[int, int, Fraction]:
    """(count, order sum, average) of the n-rung ladder from one power of u."""
    _check_rungs(n)
    return _row(n, *_unit_power(n))


def row_stream() -> Iterator[tuple[int, int, Fraction]]:
    """``ladder_row(n)`` for n = 1, 2, ..., stepping u^n -> u^(n+1) by additions."""
    n, h, p = 1, 1, 1
    while True:
        yield _row(n, h, p)
        n, h, p = n + 1, h + 2 * p, h + p


def ladder_count(n: int) -> int:
    """Number of connected sets of the n-rung ladder:
    (layer_total(n+2) - 4n - 7) / 2, with the divisibility asserted."""
    _check_rungs(n)
    return _count(n, _count_numerator(n, *_unit_power(n)))


def ladder_total_order(n: int) -> int:
    """Sum of the orders of all connected sets of the n-rung ladder."""
    _check_rungs(n)
    return _order_sum(n, _order_numerator(n, *_unit_power(n)))


def ladder_average(n: int) -> Fraction:
    """Average order of a connected set of the n-rung ladder, exact."""
    return ladder_row(n)[2]


def vince_average(n: int) -> Fraction:
    """Average order via the independently published ladder formula,
    stated over the Pell and half-companion Pell sequences directly:
    beta(n) = H, pell(n) = P and beta(n+3) = 7H + 10P."""
    _check_rungs(n)
    beta, pell_n = _unit_power(n)
    numerator = (32 - 45 * pell_n - 32 * beta
                 + n * (10 + 21 * beta + 30 * pell_n))
    return Fraction(numerator, 2 * (7 * beta + 10 * pell_n - 4 * n - 7))


def ladder_density(n: int) -> Fraction:
    """Average order divided by the 2n vertices, exact."""
    return ladder_average(n) / (2 * n)


def ladder_sum_identities(n: int) -> tuple[Check, ...]:
    """Check the five prefix-sum closed forms against direct summation.

    Every P and H value comes from one walk of u^k, k = 0..n+3.  Each
    comparison is cross-multiplied so a failing identity reports the
    two integers instead of raising on a non-exact halving.  The closed
    form for the plain Pell-tail sum uses layer_total(n+2); the version
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
