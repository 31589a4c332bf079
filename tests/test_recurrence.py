"""The characteristic polynomial as a recurrence, and the coefficient identities.

Claims covered:
    - the Fibonacci helper iterates the defining recurrence
    - the characteristic polynomial p annihilates the column-stream totals,
      far past the first m horizons and at the seed boundary (horizon-0
      total := 1); verify.stream_checks passes on the true totals and
      names the first corrupted horizon otherwise
    - the trace identity holds for every checked layer size
    - the constant-coefficient validator passes exactly where the claimed
      identity is true (m = 0, 3 mod 4) and flags it where it is false
"""

from itertools import islice

import pytest

from consets import verify
from consets.exactmath import char_poly
from consets.layers import column_stream, profile_table, recurrence_matrix, weighted_sum
from consets.recurrence import fibonacci, validate_coefficients


def totals(m, k_max):
    """T(1..k_max), the weighted count columns of the stream."""
    return [weighted_sum(counts) for counts, _ in islice(column_stream(m), k_max)]


def annihilates(m, values):
    """sum_j p_j values[i+j] == 0 for every window of m+1 values."""
    p = char_poly(recurrence_matrix(m)).coefficients
    return all(sum(c * v for c, v in zip(p, values[i:i + m + 1])) == 0
               for i in range(len(values) - m))


def test_fibonacci_values():
    assert [fibonacci(n) for n in range(7)] == [0, 1, 1, 2, 3, 5, 8]
    assert fibonacci(10) == 55
    for n in range(2, 40):
        assert fibonacci(n) == fibonacci(n - 1) + fibonacci(n - 2)
    with pytest.raises(ValueError):
        fibonacci(-1)


def test_two_layer_recurrence_shape():
    assert char_poly(recurrence_matrix(2)).coefficients == (-1, -2, 1)
    assert totals(2, 6) == [3, 7, 17, 41, 99, 239]
    assert annihilates(2, totals(2, 6))


def test_single_layer_recurrence_is_constant():
    assert char_poly(recurrence_matrix(1)).coefficients == (-1, 1)
    assert totals(1, 5) == [1, 1, 1, 1, 1]


def test_three_layer_recurrence_step():
    assert char_poly(recurrence_matrix(3)).coefficients == (1, -3, -5, 1)
    assert totals(3, 4) == [7, 37, 205, 1129]
    assert 1129 == 5 * 205 + 3 * 37 - 7


def test_stream_prefix_shorter_than_seed():
    # with k_max <= m there is no window to check, so every suite passes;
    # a horizon below 1 is refused by the matrix path
    assert all(check.ok for check in verify.stream_checks(4, 2))
    with pytest.raises(ValueError):
        verify.stream_checks(2, 0)


@pytest.mark.parametrize("m", range(2, 7))
def test_stream_matches_matrix_path(m):
    checks = verify.stream_checks(m, 60)
    assert [check.where for check in checks] == [f"m={j} k=1..60" for j in range(2, m + 1)]
    assert all(check.ok for check in checks)


def test_stream_check_names_first_corrupted_horizon(monkeypatch):
    def corrupted(m, k_max):
        columns = profile_table(m, k_max)
        columns[39] = (columns[39][0] + 1, *columns[39][1:])
        return columns

    monkeypatch.setattr(verify, "profile_table", corrupted)
    checks = verify.stream_checks(4, 60)
    assert not any(check.ok for check in checks)
    for m, check in enumerate(checks, start=2):
        assert check.detail.startswith(f"m={m} k=40: ")


@pytest.mark.parametrize("m", range(2, 9))
def test_recurrence_also_holds_at_seed_boundary(m):
    # guaranteed only from the window T(1..m+1) on; observed to hold for
    # the window (1, T(1), ..., T(m)) as well, with the horizon-0 total 1
    assert annihilates(m, [1, *totals(m, m)])


# -- coefficient identities ----------------------------------------------------

def test_two_layer_coefficients():
    report = validate_coefficients(2)
    assert all(check.ok for check in report.checks)
    assert report.polynomial.coefficients == (-1, -2, 1)


def test_three_layer_top_coefficient():
    report = validate_coefficients(3)
    assert all(check.ok for check in report.checks)
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
    failures = [check.name for check in report.checks if not check.ok]
    assert failures == ([] if claim_true else ["charpoly constant term"])


def test_validate_needs_two_layers():
    with pytest.raises(ValueError):
        validate_coefficients(1)
