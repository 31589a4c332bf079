"""Layer counting engine: recurrence matrix, count grid, weighted sums.

Claims covered:
    - recurrence matrix entries follow the binomial-difference rule
    - the column stream's count columns reproduce the known two- and
      three-layer sequences, and the count-only walk gives the same columns
      and totals
    - the last footprint class at horizon k equals the total at k-1
    - weighted column sums through matrix powers match table counts
    - the binomial-weighted matrix powers are symmetric
    - counts agree with the exhaustive census footprint by footprint
    - the layer matrix factors as L R (prefix sums after a row-reversed
      Pascal matrix), so its determinant is (-1)^(m(m-1)/2)
    - the characteristic polynomial read off the streamed totals equals
      Faddeev-LeVerrier's, and falls back to it when the certificate fails
"""

import math
from itertools import islice

import pytest

from consets import layers
from consets.exactmath import IntMatrix, char_poly
from consets.layers import (
    column_stream,
    count_columns,
    footprint_weights,
    layer_polynomial,
    pascal_row,
    profile_table,
    recurrence_matrix,
    weighted_power_symmetric,
    weighted_profile_sum,
    weighted_sum,
)
from consets.oracle import complete_path_product, footprint_census


# -- binomials and the matrix ------------------------------------------------

def test_pascal_row_matches_math_comb():
    for m in range(9):
        assert pascal_row(m) == tuple(math.comb(m, j) for j in range(m + 1))


def test_recurrence_matrix_small_cases():
    assert recurrence_matrix(1) == IntMatrix([[1]])
    assert recurrence_matrix(2) == IntMatrix([[1, 1], [2, 1]])
    assert recurrence_matrix(3) == IntMatrix([[1, 2, 1], [2, 3, 1], [3, 3, 1]])


@pytest.mark.parametrize("m", range(1, 9))
def test_recurrence_matrix_entry_rule(m):
    rows = [tuple(math.comb(m, j) - math.comb(m - i, j) for j in range(1, m + 1))
            for i in range(1, m + 1)]
    assert recurrence_matrix(m) == IntMatrix(rows)
    assert all(entry >= 0 for row in rows for entry in row)
    assert rows[-1] == footprint_weights(m)


def test_zero_layer_size_rejected():
    with pytest.raises(ValueError):
        recurrence_matrix(0)
    with pytest.raises(ValueError):
        profile_table(0, 1)


# -- count grid ----------------------------------------------------------------

def test_two_layer_totals_and_first_class():
    table = profile_table(2, 2)
    assert weighted_sum(table[0]) == 3
    assert weighted_sum(table[1]) == 7
    assert table[0][0] == 1
    assert table[1][0] == 2


def test_three_layer_totals():
    table = profile_table(3, 4)
    assert [weighted_sum(column) for column in table] == [7, 37, 205, 1129]


def test_first_column_is_all_ones():
    for m in range(1, 7):
        assert profile_table(m, 1) == [(1,) * m]


def test_column_advances_by_matrix():
    table = profile_table(4, 6)
    for k in range(2, 7):
        assert table[k - 1] == recurrence_matrix(4).apply(table[k - 2])


def test_total_weights_column_by_binomials():
    table = profile_table(5, 8)
    weights = footprint_weights(5)
    for column in table:
        assert weighted_sum(column) == sum(w * c for w, c in zip(weights, column))


@pytest.mark.parametrize("m", range(1, 7))
def test_last_class_equals_previous_total(m):
    table = profile_table(m, 30)
    for k in range(2, 31):
        assert table[k - 1][m - 1] == weighted_sum(table[k - 2])


def test_all_entries_strictly_positive():
    for m in range(1, 7):
        for column in profile_table(m, 20):
            assert all(c > 0 for c in column)


def test_out_of_range_accessors():
    assert len(profile_table(3, 3)) == 3
    with pytest.raises(ValueError, match="horizon"):
        profile_table(3, 0)


@pytest.mark.parametrize("m", range(1, 13))
def test_count_walk_matches_column_stream(m):
    # profile_table and layer_polynomial walk the counts alone; equal
    # columns give layer_polynomial the same totals T(1..2m)
    k_max = 2 * m + 5
    streamed = [counts for counts, _ in islice(column_stream(m), k_max)]
    assert list(islice(count_columns(recurrence_matrix(m)), k_max)) == streamed
    assert profile_table(m, k_max) == streamed


def test_stream_pairs_count_and_order_columns():
    pairs = column_stream(3)
    assert next(pairs) == ((1, 1, 1), (1, 2, 3))
    # A (1, 2, 3) = (8, 11, 12), plus i times the new counts (4, 12, 21)
    assert next(pairs) == ((4, 6, 7), (12, 23, 33))


# -- weighted sums and symmetry ------------------------------------------------

def test_weighted_profile_sum_examples():
    assert weighted_profile_sum(2, 1, 2) == 4  # 2 * count(1, 2)
    assert weighted_profile_sum(3, 2, 3) == 99  # 3 * count(2, 3)


def test_weighted_profile_sum_at_horizon_one_is_binomial():
    for m in range(1, 7):
        for i in range(1, m + 1):
            assert weighted_profile_sum(m, i, 1) == math.comb(m, i)


def test_weighted_profile_sum_matches_table():
    for m in range(2, 7):
        table = profile_table(m, 12)
        weights = footprint_weights(m)
        for k in range(1, 13):
            for i in range(1, m + 1):
                assert weighted_profile_sum(m, i, k) == weights[i - 1] * table[k - 1][i - 1]


def test_weighted_profile_sum_index_errors():
    with pytest.raises(ValueError):
        weighted_profile_sum(3, 0, 1)
    with pytest.raises(ValueError):
        weighted_profile_sum(3, 4, 1)


def test_weighted_power_symmetric_sweep():
    assert weighted_power_symmetric(1, 5)
    assert weighted_power_symmetric(2, 1)
    assert weighted_power_symmetric(5, 7)
    for m in range(2, 7):
        for k in range(1, 13):
            assert weighted_power_symmetric(m, k)


# -- census equivalence --------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 5))
def test_counts_match_census_by_footprint(m):
    for k in range(1, 5):
        layered = complete_path_product(m, k)
        table = profile_table(m, k)
        for i in range(1, m + 1):
            footprint = [(k - 1) * m + p for p in range(i)]  # i vertices of layer k
            assert footprint_census(layered, k, footprint).count == table[k - 1][i - 1]


# -- the factorisation and the characteristic polynomial ---------------------

@pytest.mark.parametrize("m", range(1, 31))
def test_layer_matrix_factors(m):
    # C(m, j) - C(m-i, j) = sum_{t=1..i} C(m-t, j-1) (hockey stick): A = L R
    # with L the lower triangle of ones and R(t, j) = C(m-t, j-1), a Pascal
    # matrix with its rows reversed; det L = 1, and reversing m rows gives
    # det R = (-1)^(m(m-1)/2).
    ones = IntMatrix([[int(j <= i) for j in range(m)] for i in range(m)])
    pascal = IntMatrix([[math.comb(m - t, j - 1) for j in range(1, m + 1)]
                        for t in range(1, m + 1)])
    matrix = recurrence_matrix(m)
    assert ones @ pascal == matrix
    sign = (-1) ** (m * (m - 1) // 2)
    assert (ones.determinant(), pascal.determinant(), matrix.determinant()) == (1, sign, sign)


@pytest.mark.parametrize("m", [*range(1, 13), 20, 30, 40, 50])
def test_layer_polynomial_equals_faddeev_leverrier(m):
    assert layer_polynomial(m) == char_poly(recurrence_matrix(m))


def test_layer_polynomial_falls_back_to_the_literal_matrix(monkeypatch):
    refused, matrix_side = [], []

    def uncertified(terms):
        refused.append(len(terms))
        return None

    def counted(matrix):
        matrix_side.append(matrix.order)
        return char_poly(matrix)

    monkeypatch.setattr(layers, "sequence_annihilator", uncertified)
    monkeypatch.setattr(layers, "char_poly", counted)
    assert str(layer_polynomial(3)) == "λ^3 - 5λ^2 - 3λ + 1"
    assert (refused, matrix_side) == ([6], [3])
