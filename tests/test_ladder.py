"""Two-layer closed forms: Pell sequences, counts, averages, identities.

Claims covered:
    - the sequences read off powers of 1 + sqrt(2) satisfy their defining
      recurrences and anchors
    - the closed forms hold no growing state (tracemalloc peak)
    - the closed-form count and order sum, and the average and density
      built from them, match the general-m machinery
    - the row stream and the single-n path yield the same (count, order
      sum) integers
    - the independently published ladder average gives the same fractions
    - the five prefix-sum identities hold against direct summation
    - the count numerator is always even (the halving is exact), and an
      inexact halving or quartering raises
"""

import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest

from consets import ladder
from consets.aggregate import ProductResult, evaluate
from consets.ladder import ladder_row, ladder_sum_identities, vince_average
from consets.layers import weighted_sum
from consets.orders import order_table


def pell(k: int) -> int:
    """P(k), the sqrt(2) part of (1 + sqrt(2))^k."""
    return ladder._unit_power(k)[1]


def half_companion(k: int) -> int:
    """H(k), the rational part of (1 + sqrt(2))^k."""
    return ladder._unit_power(k)[0]


def layer_total(k: int) -> int:
    """The two-layer total at horizon k, H(k+1) = H(k) + 2 P(k)."""
    h, p = ladder._unit_power(k)
    return h + 2 * p


def ladder_average(n: int) -> Fraction:
    count, total = ladder_row(n)
    return Fraction(total, count)


# -- sequences -----------------------------------------------------------------

def test_sequence_anchors():
    assert [pell(k) for k in range(7)] == [0, 1, 2, 5, 12, 29, 70]
    assert [half_companion(k) for k in range(7)] == [1, 1, 3, 7, 17, 41, 99]
    assert [layer_total(k) for k in range(7)] == [1, 3, 7, 17, 41, 99, 239]


def test_sequences_satisfy_recurrence():
    for k in range(2, 201):
        assert pell(k) == 2 * pell(k - 1) + pell(k - 2)
        assert half_companion(k) == 2 * half_companion(k - 1) + half_companion(k - 2)


def test_closed_forms_match_recurrences():
    # the sequences built here by P(k) = 2P(k-1) + P(k-2) from their seeds
    pells, halves = [0, 1], [1, 1]
    while len(pells) <= 200:
        pells.append(2 * pells[-1] + pells[-2])
        halves.append(2 * halves[-1] + halves[-2])
    for k in range(201):
        assert pell(k) == pells[k]
        assert half_companion(k) == halves[k]
    for k in range(200):
        assert layer_total(k) == halves[k + 1]


def test_closed_form_examples():
    # values read off powers of 1 + sqrt(2)
    assert layer_total(1) == 3
    assert layer_total(2) == 7
    assert layer_total(6) == 239
    assert pell(1) == 1
    assert pell(2) == 2
    assert pell(5) == 29


def test_total_splits_into_previous_total_plus_two_pell():
    for k in range(1, 120):
        assert layer_total(k) == layer_total(k - 1) + 2 * pell(k)


# -- counts, averages, densities -------------------------------------------------

def test_count_anchors():
    assert [ladder_row(n)[0] for n in (1, 2, 3)] == [3, 13, 40]
    assert ladder_row(3)[0] == 3 * 3 + 2 * 7 + 1 * 17


def test_count_numerator_always_even():
    for n in range(1, 501):
        assert (layer_total(n + 2) - 4 * n - 7) % 2 == 0


def test_average_anchors():
    assert ladder_average(1) == Fraction(4, 3)
    assert ladder_average(2) == Fraction(28, 13)
    assert ladder_average(3) == Fraction(evaluate(2, 3).total, ladder_row(3)[0])


def test_average_numerator_anchor():
    # n=1: (21-32)*3 + 7*1 + 42 = 16, over 4*count = 12
    assert ladder_average(1) == Fraction(16, 12)


def test_total_order_closed_form():
    for n in range(1, 60):
        assert ladder_row(n)[1] == evaluate(2, n).total


def test_vince_average_examples():
    assert vince_average(1) == Fraction(4, 3)
    assert vince_average(2) == Fraction(28, 13)
    assert vince_average(4) == ladder_average(4)


def test_density_examples():
    # the density of the closed-form row, as the CLI renders it
    assert ProductResult.from_sums(2, 1, *ladder_row(1)).density == Fraction(2, 3)
    assert ProductResult.from_sums(2, 2, *ladder_row(2)).density == Fraction(7, 13)
    assert ProductResult.from_sums(2, 10, *ladder_row(10)) == evaluate(2, 10)


def test_closed_forms_match_general_machinery():
    for n in range(1, 101):
        result = evaluate(2, n)
        closed = ProductResult.from_sums(2, n, *ladder_row(n))
        assert closed.count == result.count
        assert closed.average == result.average
        assert vince_average(n) == result.average
        assert closed.density == result.density


def test_average_holds_no_growing_state():
    # one power of 1 + sqrt(2) and nothing kept, so memory stays O(n) bits
    tracemalloc.start()
    try:
        count, total = ladder_row(20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024
    assert Fraction(total, count) == evaluate(2, 20000).average


def test_rows_are_count_and_order_sum():
    # the stream and the single-n path yield the same two integers per n
    rows = list(islice(ladder.row_stream(), 80))
    assert rows[:3] == [(3, 4), (13, 28), (40, 126)]
    for n, row in enumerate(rows, start=1):
        result = evaluate(2, n)
        assert row == ladder_row(n) == (result.count, result.total)


def test_inexact_numerators_raise():
    # (H, P) pairs off the sequence make the halving or the quartering inexact
    with pytest.raises(ArithmeticError, match="count numerator odd at n=1"):
        ladder._row(1, 2, 1)
    with pytest.raises(ArithmeticError, match="not divisible by 4 at n=1"):
        ladder._row(1, 3, 0)


def test_rung_count_domain():
    with pytest.raises(ValueError):
        ladder_row(0)
    with pytest.raises(ValueError):
        vince_average(0)


# -- summation identities ---------------------------------------------------------

def test_identity_report_names_and_results():
    checks = ladder_sum_identities(3)
    assert [c.name for c in checks] == [
        "prefix sum of totals",
        "weighted prefix sum of totals",
        "prefix sum of shifted pell",
        "weighted prefix sum of shifted pell",
        "square-weighted prefix sum of totals",
    ]
    assert all(c.ok for c in checks)


def test_prefix_sum_identity_arithmetic():
    # n=3: 3 + 7 + 17 = 27 = (41 + 17 - 4) / 2
    assert 3 + 7 + 17 == (layer_total(4) + layer_total(3) - 4) // 2 == 27


def test_weighted_prefix_sum_identity_at_one():
    # n=1: 1*3 = (17 - 2*7 + 3) / 2
    assert 3 == (layer_total(3) - 2 * layer_total(2) + 3) // 2


def test_identities_hold_over_range():
    for n in range(1, 101):
        assert all(check.ok for check in ladder_sum_identities(n))


def test_shifted_pell_sum_uses_horizon_plus_two():
    # direct summation pins the closed-form index: at n=1 the sum is
    # pell(3) = 5 = (layer_total(3) - 7) / 2, not (layer_total(4) - 7) / 2
    assert pell(3) == (layer_total(3) - 7) // 2
    assert pell(3) != (layer_total(4) - 7) // 2


def test_layer_order_sum_closed_form():
    # ((3k-2)*total(k) + pell(k+2)) / 2 reproduces the order-sum table
    table = order_table(2, 50)
    for k in range(1, 51):
        value = (3 * k - 2) * layer_total(k) + pell(k + 2)
        assert value % 2 == 0
        assert weighted_sum(table[k - 1]) == value // 2
