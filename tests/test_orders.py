"""Order-sum engine: recursive column step, literal matrix sum, convolution.

Claims covered:
    - base column is (1, 2, ..., m); small anchors match hand listings
    - the three evaluation paths agree cell by cell
    - the convolution bridge identity holds for every footprint class
    - order sums sit between k and m*k times the counts
    - order sums match the exhaustive census family by family
"""

import pytest

from consets.layers import footprint_weights, profile_table, weighted_sum
from consets.oracle import complete_path_product, footprint_census, span_census
from consets.orders import (
    convolution_identity_holds,
    layer_order_sum_convolution,
    order_column_direct,
    order_table,
)


def test_direct_column_weights_by_size():
    # at k = 1 the literal sum is diag(1, ..., m) applied to all-ones
    for m in range(1, 6):
        assert order_column_direct(m, 1) == tuple(range(1, m + 1))


def test_base_column_counts_vertices():
    for m in range(1, 6):
        assert order_table(m, 1) == [tuple(range(1, m + 1))]


def test_two_layer_order_sum_anchor():
    # the seven sets meeting both layers of the 4-cycle have orders
    # 2+2+3+3+3+3+4
    assert weighted_sum(order_table(2, 2)[1]) == 20


def test_three_layer_base_order_sum():
    # sizes over the nonempty subsets of a triangle: 3*1 + 3*2 + 1*3
    assert weighted_sum(order_table(3, 1)[0]) == 12


def test_single_layer_size_direct_column():
    assert order_column_direct(1, 3) == (3,)


def test_direct_column_matches_recursive():
    for m in range(1, 6):
        table = order_table(m, 10)
        for k in range(1, 11):
            assert order_column_direct(m, k) == table[k - 1]


def test_convolution_examples():
    table2 = profile_table(2, 2)
    assert layer_order_sum_convolution(1, table2) == 4
    table3 = profile_table(3, 2)
    assert layer_order_sum_convolution(2, table3) == 138
    table1 = profile_table(1, 7)
    for k in range(1, 8):
        assert layer_order_sum_convolution(k, table1) == k


def test_three_path_agreement():
    for m in range(2, 6):
        table = order_table(m, 10)
        counts = profile_table(m, 10)
        weights = footprint_weights(m)
        for k in range(1, 11):
            column = table[k - 1]
            assert column == order_column_direct(m, k)
            weighted = sum(w * s for w, s in zip(weights, column))
            assert weighted == weighted_sum(column)
            assert weighted == layer_order_sum_convolution(k, counts)


def test_convolution_horizon_error():
    table = profile_table(3, 2)
    with pytest.raises(ValueError, match="shorter"):
        layer_order_sum_convolution(5, table)


def test_convolution_is_reindexing_symmetric():
    for m in range(2, 6):
        table = profile_table(m, 9)
        for i in range(1, m):
            for k in range(1, 10):
                forward = sum(table[s - 1][i - 1] * table[k - s][i - 1]
                              for s in range(1, k + 1))
                reverse = sum(table[k - s][i - 1] * table[s - 1][i - 1]
                              for s in range(k, 0, -1))
                assert forward == reverse


def test_convolution_identity_examples():
    assert convolution_identity_holds(1, 2, profile_table(2, 2))
    table1 = profile_table(1, 6)
    for k in range(1, 7):
        assert convolution_identity_holds(1, k, table1)
    assert convolution_identity_holds(3, 5, profile_table(4, 5))


def test_convolution_identity_sweep():
    for m in range(2, 5):
        table = profile_table(m, 8)
        for i in range(1, m + 1):
            for k in range(1, 9):
                assert convolution_identity_holds(i, k, table)


def test_order_sum_bounds():
    for m in range(1, 6):
        counts = profile_table(m, 12)
        sums = order_table(m, 12)
        for k in range(1, 13):
            total = weighted_sum(counts[k - 1])
            assert k * total <= weighted_sum(sums[k - 1]) <= m * k * total


# -- census equivalence --------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 5))
def test_order_sums_match_census(m):
    for k in range(1, 5):
        layered = complete_path_product(m, k)
        table = order_table(m, k)
        assert span_census(layered, 1, k).order_sum == weighted_sum(table[k - 1])
        for i in range(1, m + 1):
            footprint = [(k - 1) * m + p for p in range(i)]  # i vertices of layer k
            assert footprint_census(layered, k, footprint).order_sum == table[k - 1][i - 1]
