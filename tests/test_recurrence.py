"""Scalar recurrence fast path and the coefficient identities.

Claims covered:
    - the Fibonacci helper iterates the defining recurrence
    - recurrence coefficients and seeds reproduce the matrix-path totals,
      far past the seed and at the k = m boundary (horizon-0 total := 1)
    - the trace identity holds for every checked layer size
    - the constant-coefficient validator passes exactly where the claimed
      identity is true (m = 0, 3 mod 4) and flags it where it is false
"""

import pytest

from consets.layers import profile_table, weighted_sum
from consets.recurrence import (
    LinearRecurrence,
    build_recurrence,
    fibonacci,
    total_stream,
    validate_coefficients,
)


def test_fibonacci_values():
    assert [fibonacci(n) for n in range(7)] == [0, 1, 1, 2, 3, 5, 8]
    assert fibonacci(10) == 55
    for n in range(2, 40):
        assert fibonacci(n) == fibonacci(n - 1) + fibonacci(n - 2)
    with pytest.raises(ValueError):
        fibonacci(-1)


def test_two_layer_recurrence_shape():
    rec = build_recurrence(2)
    assert rec.coefficients == (2, 1)
    assert rec.seed == (3, 7)
    assert rec.stream(6) == [3, 7, 17, 41, 99, 239]


def test_single_layer_recurrence_is_constant():
    rec = build_recurrence(1)
    assert rec.coefficients == (1,)
    assert rec.stream(5) == [1, 1, 1, 1, 1]


def test_three_layer_recurrence_step():
    rec = build_recurrence(3)
    assert rec.coefficients == (5, 3, -1)
    assert rec.stream(4) == [7, 37, 205, 1129]
    assert 1129 == 5 * 205 + 3 * 37 - 7


def test_stream_prefix_shorter_than_seed():
    assert build_recurrence(4).stream(2) == [weighted_sum(c) for c in profile_table(4, 2)]
    with pytest.raises(ValueError):
        LinearRecurrence(m=1, coefficients=(1,), seed=(1,)).stream(0)


@pytest.mark.parametrize("m", range(2, 7))
def test_stream_matches_matrix_path(m):
    k_max = 60
    assert total_stream(m, k_max) == [weighted_sum(c) for c in profile_table(m, k_max)]


@pytest.mark.parametrize("m", range(2, 9))
def test_recurrence_also_holds_at_seed_boundary(m):
    # guaranteed only for k >= m+1; observed to hold at k = m as well once
    # the horizon-0 total is taken to be 1
    rec = build_recurrence(m)
    totals = [weighted_sum(c) for c in profile_table(m, m)]
    extended = [1] + totals[:-1]
    predicted = sum(c * v for c, v in zip(rec.coefficients, reversed(extended)))
    assert predicted == totals[-1]


# -- coefficient identities ----------------------------------------------------

def test_two_layer_coefficients():
    report = validate_coefficients(2)
    assert report.passed
    assert report.polynomial.coefficients == (-1, -2, 1)


def test_three_layer_top_coefficient():
    report = validate_coefficients(3)
    assert report.passed
    assert report.polynomial[2] == fibonacci(4) - 8 == -5


@pytest.mark.parametrize("m", range(2, 13))
def test_trace_identity_always_holds(m):
    report = validate_coefficients(m)
    by_name = {check.name: check for check in report.checks}
    assert by_name["charpoly top coefficient"].ok
    assert by_name["matrix trace identity"].ok
    assert by_name["determinant sign identity"].ok


@pytest.mark.parametrize("m", range(2, 13))
def test_constant_term_claim_flagged_where_false(m):
    # the claimed unit constant term is true only for m = 0, 3 (mod 4);
    # the validator must report rather than mask the failures
    report = validate_coefficients(m)
    by_name = {check.name: check for check in report.checks}
    claim_true = m == 2 or m % 4 in (0, 3)
    assert by_name["charpoly constant term"].ok == claim_true
    assert report.passed == claim_true
    if not claim_true:
        assert report.failures()[0].name == "charpoly constant term"


def test_validate_needs_two_layers():
    with pytest.raises(ValueError):
        validate_coefficients(1)
