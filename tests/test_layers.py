"""Layer counting engine: recurrence matrix, count grid, weighted sums.

Claims covered:
    - recurrence matrix entries count the layer-1 subsets that meet a
      layer-2 subset's partners on the literal two-layer graph
    - the column stream's count columns reproduce the known two- and
      three-layer sequences, and the count-only walk gives the same columns
      and totals
    - the last footprint class at horizon k equals the total at k-1
    - the additions-only step equals the literal matrix on any column; a
      corrupted step fails the battery's step check and its
      scalar-recurrence checks
    - weighted column sums through matrix powers match table counts
    - a route that a swept battery check guards, corrupted from one cell
      on, fails that check, whose detail names the cell: the ladder count
      closed form, each of the five prefix-sum identities, weighted power
      symmetry and column sums, and both order-sum paths
    - the binomial-weighted matrix powers are symmetric
    - counts agree with the exhaustive census footprint by footprint
    - the layer matrix factors as L R (prefix sums after a row-reversed
      Pascal matrix), so its determinant is (-1)^(m(m-1)/2)
    - the characteristic polynomial read off the streamed totals equals
      Faddeev-LeVerrier's; where the certificate fails it raises, naming
      the degree, and the literal matrix never stands in
"""

import math
import random
from functools import partial
from itertools import accumulate, islice

import pytest

from consets import exactmath, ladder, layers, verify
from consets.exactmath import char_poly
from consets.layers import (
    column_stream,
    count_columns,
    footprint_weights,
    layer_polynomial,
    layer_step,
    profile_table,
    recurrence_matrix,
    weighted_powers,
    weighted_profile_sums,
    weighted_sum,
)
from consets.oracle import complete_path_product, footprint_census
from consets.recurrence import IntMatrix


# -- binomials and the matrix ------------------------------------------------

def test_recurrence_matrix_small_cases():
    assert recurrence_matrix(1) == IntMatrix([[1]])
    assert recurrence_matrix(2) == IntMatrix([[1, 1], [2, 1]])
    assert recurrence_matrix(3) == IntMatrix([[1, 2, 1], [2, 3, 1], [3, 3, 1]])


@pytest.mark.parametrize("m", range(1, 9))
def test_recurrence_matrix_entry_rule(m):
    # entry (i, j) counted on the literal graph K_m x P_2: the j-subsets of
    # layer 1 with an edge to a fixed i-subset of layer 2
    layered = complete_path_product(m, 2)
    adjacency = layered.graph.adjacency
    rows = []
    for i in range(1, m + 1):
        reach = 0
        for v in range(m, m + i):  # the first i vertices of layer 2
            reach |= adjacency[v]
        reach &= layered.layer_mask(1)  # bits 0..m-1
        rows.append(tuple(sum(1 for subset in range(1 << m)
                              if subset.bit_count() == j and subset & reach)
                          for j in range(1, m + 1)))
    assert recurrence_matrix(m) == IntMatrix(rows)
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
    assert list(islice(count_columns(m), k_max)) == streamed
    assert profile_table(m, k_max) == streamed


def test_stream_pairs_count_and_order_columns():
    pairs = column_stream(3)
    assert next(pairs) == ((1, 1, 1), (1, 2, 3))
    # A (1, 2, 3) = (8, 11, 12), plus i times the new counts (4, 12, 21)
    assert next(pairs) == ((4, 6, 7), (12, 23, 33))


# -- weighted sums and symmetry ------------------------------------------------

def test_weighted_profile_sum_examples():
    assert list(islice(weighted_profile_sums(2), 2))[1][0] == 4  # 2 * count(1, 2)
    assert list(islice(weighted_profile_sums(3), 3))[2][1] == 99  # 3 * count(2, 3)


def test_weighted_profile_sum_at_horizon_one_is_binomial():
    for m in range(1, 7):
        assert next(weighted_profile_sums(m)) == tuple(math.comb(m, i) for i in range(1, m + 1))


def test_weighted_profile_sum_matches_table():
    for m in range(2, 7):
        weights = footprint_weights(m)
        for column, sums in zip(profile_table(m, 12), weighted_profile_sums(m)):
            assert sums == tuple(w * c for w, c in zip(weights, column))


def test_weighted_walks_reject_zero_layer_size():
    with pytest.raises(ValueError):
        next(weighted_profile_sums(0))
    with pytest.raises(ValueError):
        next(weighted_powers(0))


def test_weighted_power_symmetric_sweep():
    for m in range(1, 7):
        powers = list(islice(weighted_powers(m), 12))
        assert all(power.is_symmetric for power in powers)
        # one product per power: the k-th is diag(weights) A^k
        assert powers[0] == IntMatrix.diagonal(footprint_weights(m)) @ recurrence_matrix(m)


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


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 12, 30])
def test_layer_step_equals_the_literal_matrix(m):
    # any integer column, negative and large entries included
    rng = random.Random(m)
    matrix = recurrence_matrix(m)
    for _ in range(20):
        column = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(m)]
        assert layer_step(column) == matrix.apply(column)
    assert layer_step([0] * m) == (0,) * m


def _unreversed_step(column):
    # prefix sums of the binomial transform taken in the wrong order
    row, transformed = list(column), []
    while row:
        transformed.append(row[0])
        row = [a + b for a, b in zip(row, row[1:])]
    return tuple(accumulate(transformed))


def _off_by_one_step(column):
    *head, last = layer_step(column)
    return (*head, last + 1)


@pytest.mark.parametrize("corrupted", [_unreversed_step, _off_by_one_step])
def test_battery_catches_a_corrupted_step(corrupted, monkeypatch):
    assert all(check.ok for check in verify.layer_step_checks(12))
    monkeypatch.setattr(layers, "layer_step", corrupted)
    (step_check,) = verify.layer_step_checks(12)
    assert not step_check.ok
    assert step_check.detail.startswith("m=")
    # a drift of one in the last class is invisible to p at m = 4 alone,
    # where the weight row is orthogonal to (A - I)^-1 e_m
    assert not all(check.ok for check in verify.stream_checks(6, 200))


def _items_off(first, bump):
    """Corrupt a generator function: bump each item from the first-th on."""
    def corrupt(real):
        def corrupted(*args):
            for k, item in enumerate(real(*args), start=1):
                yield bump(item) if k >= first else item
        return corrupted
    return corrupt


def _values_off(first, bump, horizon=1):
    """Corrupt a function whose argument at index ``horizon`` is the
    horizon k: bump its value from horizon first on."""
    def corrupt(real):
        def corrupted(*args):
            value = real(*args)
            return bump(value) if args[horizon] >= first else value
        return corrupted
    return corrupt


def _identity_off(index, identities):
    name, direct, closed = identities[index]
    return (*identities[:index], (name, direct + 1, closed), *identities[index + 1:])


_IDENTITIES = ("prefix sum of totals", "weighted prefix sum of totals",
               "prefix sum of shifted pell", "weighted prefix sum of shifted pell",
               "square-weighted prefix sum of totals")
_SYMMETRY, _ORDER_PATHS = partial(verify.symmetry_checks, 3, 5), partial(verify.order_path_checks, 3, 8)


#: (owner, name, corruption, suite, check, first bad cell): ``owner.name``
#: is the route that the suite's check guards, as the suite reads it
_BROKEN_ROUTES = [
    (ladder, "row_stream", _items_off(5, lambda row: ((row[0][0] + 1, row[0][1]), row[1])),
     partial(verify.ladder_checks, 10), "ladder count closed form", "n=5"),
    *((ladder, "ladder_sum_identities", _items_off(4, partial(_identity_off, index)),
       partial(verify.ladder_identity_checks, 10), identity, "n=4")
      for index, identity in enumerate(_IDENTITIES)),
    (verify, "weighted_powers", _items_off(3, lambda power: power + IntMatrix.unit(power.order, 0, 1)),
     _SYMMETRY, "weighted power symmetry", "m=2 k=3"),
    (verify, "weighted_profile_sums", _items_off(4, lambda sums: (sums[0], sums[1] + 1, *sums[2:])),
     _SYMMETRY, "weighted profile sum", "m=2 i=2 k=4"),
    (verify, "order_column_direct", _values_off(6, lambda column: (column[0] + 1, *column[1:])),
     _ORDER_PATHS, "order sums recursive vs literal matrix sum", "m=2 k=6"),
    (verify, "layer_order_sum_convolution", _values_off(6, lambda total: total + 1, horizon=0),
     _ORDER_PATHS, "order sums recursive vs convolution", "m=2 k=6"),
]


@pytest.mark.parametrize("owner, name, corrupt, suite, check, first_bad", _BROKEN_ROUTES,
                         ids=[case[4].replace(" ", "-") for case in _BROKEN_ROUTES])
def test_battery_names_the_first_bad_cell(owner, name, corrupt, suite, check, first_bad, monkeypatch):
    # a route that a swept check guards goes wrong from one cell on: the
    # check fails, and its detail names that cell, not a later one
    assert all(each.ok for each in suite())
    monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
    named = next(each for each in suite() if each.name == check)
    assert not named.ok
    assert named.detail.partition(":")[0] == first_bad


@pytest.mark.parametrize("m", [*range(1, 13), 20, 30, 40, 50])
def test_layer_polynomial_equals_faddeev_leverrier(m):
    assert layer_polynomial(m) == char_poly(recurrence_matrix(m))


@pytest.mark.parametrize("m", [1, 3, 7])
def test_an_uncertified_layer_polynomial_raises(m, monkeypatch, refuse):
    # Berlekamp-Massey is p's one route: with no certificate there is no
    # p, and the literal matrix never stands in
    refused = []

    def uncertified(terms, q):  # complexity 0, below the degree m
        refused.append(len(terms))
        return 0, [1]

    monkeypatch.setattr(exactmath, "_linear_complexity", uncertified)
    refuse(exactmath, "char_poly")
    refuse(layers, "recurrence_matrix")
    with pytest.raises(ArithmeticError, match=f"^Berlekamp-Massey did not certify p of degree {m}$"):
        layer_polynomial(m)
    assert refused == [2 * m]
