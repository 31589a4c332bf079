"""Two-layer closed forms: Pell sequences, counts, averages, identities.

Claims covered:
    - the sequences walked by additions satisfy their defining recurrences
      and anchors, every (H(k), P(k)) has H^2 - 2P^2 = (-1)^k, and the
      walk equals x^k mod x^2 - 2x - 1 read as (a + b, b), whose negative
      exponent raises
    - the engine's single cell at m = 2, the recurrence jump, equals the
      row stream's item far out (n = 5000 and 20000) and holds no growing
      state (tracemalloc peak)
    - the closed-form count and order sum, and the average and density
      built from them, match the general-m machinery; the row stream
      carries each row's (H(n), P(n)) pair
    - the independently published ladder average gives the same fractions
    - the closed forms prove the engine's m = 2 gcd: modulo gcd(N, S) they
      solve for 5H and 5P, whose norm is D(n) =
      ``aggregate.ladder_gcd_multiple(n)``; D(n) > 0 is a multiple of
      gcd(N, S), and gcd(D, N mod D, S mod D) equals it, n = 1..5000
    - the five prefix-sum identities hold, and their running sums equal
      direct summation
    - the count numerator is always even (the halving is exact), and an
      inexact halving or quartering raises
"""

import tracemalloc
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest

from consets import ladder
from consets.aggregate import ProductResult, evaluate, ladder_gcd_multiple
from consets.exactmath import IntPolynomial, x_power_mod
from consets.ladder import ladder_sum_identities, row_stream, vince_average
from consets.layers import weighted_sum
from consets.orders import order_table

#: x^2 - 2x - 1, the minimal polynomial of u = 1 + sqrt(2).
SILVER = IntPolynomial((-1, -2, 1))


def unit_power(k: int) -> tuple[int, int]:
    """(H(k), P(k)), the rational and sqrt(2) parts of (1 + sqrt(2))^k."""
    return next(islice(ladder._pell_walk(), k, None))


def pell(k: int) -> int:
    """P(k), the sqrt(2) part of (1 + sqrt(2))^k."""
    return unit_power(k)[1]


def half_companion(k: int) -> int:
    """H(k), the rational part of (1 + sqrt(2))^k."""
    return unit_power(k)[0]


def layer_total(k: int) -> int:
    """The two-layer total at horizon k, H(k+1) = H(k) + 2 P(k)."""
    h, p = unit_power(k)
    return h + 2 * p


def closed_row(n: int) -> tuple[int, int]:
    """(count, order sum) of the n-rung ladder off the closed forms."""
    return ladder._row(n, *unit_power(n))


def ladder_average(n: int) -> Fraction:
    count, total = closed_row(n)
    return Fraction(total, count)


def identities(n: int) -> tuple[tuple[str, int, int], ...]:
    """The five (name, direct sum, closed form) triples at n."""
    return next(islice(ladder_sum_identities(), n - 1, None))


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


def test_unit_power_norm_alternates():
    # H^2 - 2P^2 is multiplicative and -1 at 1 + sqrt(2), so (-1)^k at its k-th power
    for k, (h, p) in enumerate(islice(ladder._pell_walk(), 31)):
        assert h * h - 2 * p * p == (-1) ** k


def test_unit_power_negative_exponent_rejected():
    with pytest.raises(ValueError):
        x_power_mod(-1, SILVER)


def test_unit_power_equals_additions_walk():
    # x^k = a + b x mod x^2 - 2x - 1 puts u^k at (a + b) + b sqrt(2);
    # 4097 = 2^12 + 1: eleven squaring-only bits between two shifting ones
    walk = list(islice(ladder._pell_walk(), 4098))
    for k in (*range(301), 4097):
        a, b = x_power_mod(k, SILVER)
        assert (a + b, b) == walk[k], k


def test_single_row_equals_row_stream_far_out():
    # evaluate(2, 5000) jumps: the engine's large-n path against the closed forms
    result = evaluate(2, 5000)
    assert (result.count, result.total) == next(islice(row_stream(), 4999, None))[0]


# -- counts, averages, densities -------------------------------------------------

def test_count_anchors():
    assert [closed_row(n)[0] for n in (1, 2, 3)] == [3, 13, 40]
    assert closed_row(3)[0] == 3 * 3 + 2 * 7 + 1 * 17


def test_count_numerator_always_even():
    for n in range(1, 501):
        assert (layer_total(n + 2) - 4 * n - 7) % 2 == 0


def test_average_anchors():
    assert ladder_average(1) == Fraction(4, 3)
    assert ladder_average(2) == Fraction(28, 13)
    assert ladder_average(3) == Fraction(evaluate(2, 3).total, closed_row(3)[0])


def test_average_numerator_anchor():
    # n=1: (21-32)*3 + 7*1 + 42 = 16, over 4*count = 12
    assert ladder_average(1) == Fraction(16, 12)


def test_total_order_closed_form():
    for n in range(1, 60):
        assert closed_row(n)[1] == evaluate(2, n).total


def test_vince_average_examples():
    assert vince_average(1, *unit_power(1)) == Fraction(4, 3)
    assert vince_average(2, *unit_power(2)) == Fraction(28, 13)
    assert vince_average(4, *unit_power(4)) == ladder_average(4)


def test_density_examples():
    # the density of the closed-form row, as the CLI renders it
    assert ProductResult(2, 1, *closed_row(1)).density == Fraction(2, 3)
    assert ProductResult(2, 2, *closed_row(2)).density == Fraction(7, 13)
    assert ProductResult(2, 10, *closed_row(10)) == evaluate(2, 10)


def test_closed_forms_match_general_machinery():
    walk = islice(ladder._pell_walk(), 1, None)
    for n, (h, p), (row, pair) in zip(range(1, 101), walk, row_stream()):
        assert pair == (h, p)
        result = evaluate(2, n)
        closed = ProductResult(2, n, *row)
        assert closed.count == result.count
        assert closed.average == result.average
        assert vince_average(n, h, p) == result.average
        assert closed.density == result.density


def test_average_holds_no_growing_state():
    # the jump at m = 2 keeps O(1) integers of O(n) bits, not every column
    tracemalloc.start()
    try:
        result = evaluate(2, 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024
    (count, total), _ = next(islice(row_stream(), 19999, None))
    assert result.average == Fraction(total, count)


def test_rows_are_count_and_order_sum():
    # the stream and the engine yield the same two integers per n
    rows = [row for row, _ in islice(row_stream(), 80)]
    assert rows[:3] == [(3, 4), (13, 28), (40, 126)]
    for n, row in enumerate(rows, start=1):
        result = evaluate(2, n)
        assert row == closed_row(n) == (result.count, result.total)


def test_inexact_numerators_raise():
    # (H, P) pairs off the sequence make the halving or the quartering inexact
    with pytest.raises(ArithmeticError, match="count numerator odd at n=1"):
        ladder._row(1, 2, 1)
    with pytest.raises(ArithmeticError, match="not divisible by 4 at n=1"):
        ladder._row(1, 3, 0)


def test_rung_count_domain():
    # the ladder's rows come from the engine, which refuses zero rungs
    with pytest.raises(ValueError):
        evaluate(2, 0)
    # and the published formula is undefined there: u^0 = 1 makes it 0/0
    with pytest.raises(ZeroDivisionError):
        vince_average(0, *unit_power(0))


# -- the engine's m = 2 gcd -----------------------------------------------------

def test_gcd_multiple_follows_from_the_closed_forms():
    # the steps of ladder_gcd_multiple's proof along the row stream: the
    # two closed forms, their solution for 5H and 5P modulo g = gcd(N, S),
    # and D(n) as the norm 25(H^2 - 2P^2) - 25(-1)^n of that solution
    for n, ((count, total), (h, p)) in zip(range(1, 2001), row_stream()):
        g = gcd(count, total)
        assert 2 * count == 7 * h + 10 * p - (4 * n + 7)
        assert 4 * total == (21 * n - 32) * h + (30 * n - 45) * p + 10 * n + 32
        five_h, five_p = 120 * n * n + 130 * n + 5, -(84 * n * n + 89 * n)
        assert (5 * h - five_h) % g == 0 and (5 * p - five_p) % g == 0
        assert ladder_gcd_multiple(n) == five_h ** 2 - 2 * five_p ** 2 - 25 * (-1) ** n


def test_gcd_multiple_gives_the_gcd():
    # D(n) > 0 and gcd(N, S) divides it, so gcd(D, N mod D, S mod D) is
    # math.gcd(N, S), and the engine's A is the reduced pair, n = 1..5000
    for n, ((count, total), _) in zip(range(1, 5001), row_stream()):
        multiple, common = ladder_gcd_multiple(n), gcd(count, total)
        assert multiple > 0 and multiple % common == 0
        assert gcd(multiple, count % multiple, total % multiple) == common
        average = ProductResult.of_cell(2, n, count, total).average
        assert (average.numerator, average.denominator) == (total // common, count // common)
    assert [ladder_gcd_multiple(n).bit_length() for n in (3814, 3 * 10 ** 5)] == [56, 81]


# -- summation identities ---------------------------------------------------------

def test_identity_report_names_and_results():
    triples = identities(3)
    assert [name for name, _, _ in triples] == [
        "prefix sum of totals",
        "weighted prefix sum of totals",
        "prefix sum of shifted pell",
        "weighted prefix sum of shifted pell",
        "square-weighted prefix sum of totals",
    ]
    assert all(2 * direct == closed for _, direct, closed in triples)


def test_prefix_sum_identity_arithmetic():
    # n=3: 3 + 7 + 17 = 27 = (41 + 17 - 4) / 2
    assert 3 + 7 + 17 == (layer_total(4) + layer_total(3) - 4) // 2 == 27


def test_weighted_prefix_sum_identity_at_one():
    # n=1: 1*3 = (17 - 2*7 + 3) / 2
    assert 3 == (layer_total(3) - 2 * layer_total(2) + 3) // 2


def test_identities_hold_over_range():
    for n, triples in zip(range(1, 101), ladder_sum_identities()):
        assert all(2 * direct == closed for _, direct, closed in triples), n


def test_identity_sums_equal_direct_summation():
    # the running sums against sums written out over the test's own sequences
    for n, triples in zip(range(1, 41), ladder_sum_identities()):
        ks = range(1, n + 1)
        assert [direct for _, direct, _ in triples] == [
            sum(layer_total(k) for k in ks),
            sum(k * layer_total(k) for k in ks),
            sum(pell(k + 2) for k in ks),
            sum(k * pell(k + 2) for k in ks),
            sum(k * k * layer_total(k) for k in ks),
        ], n


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
