"""Whole-graph quantities: count, total order, average, density.

Claims covered:
    - small-cell anchors match exhaustive listings
    - degenerate families have their closed-form counts and averages
    - the convolution route to the average agrees with the stream route
    - every desk-scale cell matches the census exactly
    - the average and density are derived from N and S, never passed
      in, and the bound 1 <= A <= mn is enforced
    - a deep cell holds O(m) integers, not every column
    - the recurrence jump equals the stream, and ``evaluate`` equals it
      on both sides of the seed boundary n = 2m+2; the annihilator holds
      on the streamed sums
    - no production path builds the literal layer matrix, applies it or
      takes the binomial weights
    - the stream's second differences equal the weighted count and order
      columns
    - a jump walks the first 2m+3 columns once: its seeds give the
      per-horizon totals as second differences, and p comes off them,
      never by Faddeev-LeVerrier for m <= 60, and through
      ``layer_polynomial`` where Berlekamp-Massey is not certified
    - verify.jump_checks fails, naming m and n, when the jump is wrong
    - the package exports exactly the engine's three names; the census
      and the polynomial resolve from their own modules only
"""

import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest

import consets
from consets import aggregate, exactmath, layers, verify
from consets.aggregate import ProductResult, _jumper, annihilator, cell_stream, evaluate
from consets.layers import layer_polynomial, profile_table, weighted_sum
from consets.oracle import census, complete_path_product
from consets.orders import layer_order_sum_convolution


def test_small_cell_anchors():
    assert (evaluate(2, 2).count, evaluate(2, 2).total) == (13, 28)
    assert (evaluate(3, 2).count, evaluate(3, 2).total) == (51, 162)
    assert evaluate(2, 1).average == Fraction(4, 3)
    assert evaluate(3, 2).average == Fraction(54, 17)
    assert evaluate(3, 2).density == Fraction(9, 17)
    assert evaluate(2, 2).density == Fraction(7, 13)
    assert evaluate(1, 1).density == 1


def test_single_column_closed_forms():
    for n in range(1, 31):
        result = evaluate(1, n)
        assert result.count == n * (n + 1) // 2
        assert result.total == n * (n + 1) * (n + 2) // 6
        assert result.average == Fraction(n + 2, 3)


def test_single_layer_closed_forms():
    for m in range(1, 11):
        result = evaluate(m, 1)
        assert result.count == 2 ** m - 1
        assert result.total == m * 2 ** (m - 1)
        assert result.average == Fraction(m * 2 ** (m - 1), 2 ** m - 1)


def test_domain_errors():
    with pytest.raises(ValueError):
        evaluate(0, 3)
    with pytest.raises(ValueError):
        evaluate(3, 0)


def test_convolution_route_agrees():
    # the triangular sum over spans, each layer order sum rebuilt from
    # counts alone (no order column)
    for m in range(1, 6):
        for n in range(1, 13):
            counts = profile_table(m, n)
            total = sum((n - k + 1) * layer_order_sum_convolution(m, k, counts)
                        for k in range(1, n + 1))
            result = evaluate(m, n)
            assert Fraction(total, result.count) == result.average


def test_density_bounds():
    for m in range(1, 6):
        for n in range(1, 13):
            d = evaluate(m, n).density
            assert Fraction(1, m * n) <= d <= 1


def test_census_equivalence_desk_scale():
    for m in range(1, 5):
        for n in range(1, 16 // m + 1):
            result = evaluate(m, n)
            report = census(complete_path_product(m, n).graph)
            assert result.count == report.count
            assert result.total == report.total_order
            assert result.average == report.average
            assert result.density == report.density


def test_result_invariants_enforced():
    good = evaluate(2, 3)
    assert good.average == Fraction(good.total, good.count)
    assert good.density == good.average / 6
    assert ProductResult(2, 3, good.count, good.total) == good
    # A and D are derived, never passed in, so they cannot disagree with N and S.
    with pytest.raises(TypeError, match="average"):
        ProductResult(m=2, n=3, count=good.count, total=good.total,
                      average=good.average, density=good.density)
    # an out-of-range average is an engine fault, not a bad argument
    with pytest.raises(ArithmeticError, match="average outside"):
        ProductResult(1, 2, 1, 5)
    with pytest.raises(ArithmeticError, match="average outside"):
        ProductResult(1, 2, 2, 1)


def test_deep_cell_memory_stays_flat():
    # every column of (6, 3000) kept would take tens of megabytes
    tracemalloc.start()
    try:
        evaluate(6, 3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("m", range(1, 11))
def test_jump_equals_stream(m):
    degree = 2 * m + 2
    streamed = list(islice(cell_stream(m), 500))
    jump = _jumper(m)
    for n in [*range(1, 3 * degree + 1), 500]:
        assert jump(n) == streamed[n - 1], n
        assert evaluate(m, n) == ProductResult(m, n, *streamed[n - 1]), n


@pytest.mark.parametrize("m", range(1, 11))
def test_evaluate_across_the_engine_crossover(m, monkeypatch):
    # n = 2m+2 is the last seed and streams; n = 2m+3 jumps
    degree = 2 * m + 2
    streamed = list(islice(cell_stream(m), degree + 1))
    jumped = []
    monkeypatch.setattr(aggregate, "_jumper", lambda m: jumped.append(m) or _jumper(m))
    assert evaluate(m, degree) == ProductResult(m, degree, *streamed[degree - 1])
    assert jumped == []
    assert evaluate(m, degree + 1) == ProductResult(m, degree + 1, *streamed[degree])
    assert jumped == [m]


@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_a_jump_walks_the_columns_once(m, monkeypatch):
    walks, columns = [], []
    real = layers.count_columns

    def counted(m):
        walks.append(m)
        for column in real(m):
            columns.append(column)
            yield column

    monkeypatch.setattr(layers, "count_columns", counted)
    jump = _jumper(m)
    assert walks == [m]
    # 2m+2 seeds; the last one's totals are read off one more column
    assert len(columns) == 2 * m + 3
    assert jump(4 * m + 5) == next(islice(cell_stream(m), 4 * m + 4, None))


def test_production_paths_never_build_the_literal_matrix(monkeypatch):
    # the engine steps by the factored layer matrix and reads the totals
    # off its last row; the literal matrix and the binomial weights are
    # left to verify, and to layer_polynomial's fallback, which m <= 60
    # never takes
    expected = {m: list(islice(cell_stream(m), 4 * m + 5)) for m in range(1, 13)}
    polynomials = {m: layer_polynomial(m) for m in range(1, 13)}

    def refused(*args):
        raise AssertionError("a reference route was used")

    monkeypatch.setattr(layers, "recurrence_matrix", refused)
    monkeypatch.setattr(layers, "footprint_weights", refused)
    monkeypatch.setattr(exactmath.IntMatrix, "apply", refused)
    for m, streamed in expected.items():
        seeds = 2 * m + 2
        assert list(islice(cell_stream(m), 4 * m + 5)) == streamed
        assert profile_table(m, seeds) == list(islice(layers.count_columns(m), seeds))
        for n in (seeds, seeds + 1):
            assert evaluate(m, n) == ProductResult(m, n, *streamed[n - 1])
        assert _jumper(m)(4 * m + 5) == streamed[-1]
        assert layer_polynomial(m) == polynomials[m]


@pytest.mark.parametrize("m", range(1, 13))
def test_count_totals_are_second_differences_of_the_stream(m):
    # the stream reads T and U off the last entries of the next columns;
    # the binomial weights give them independently
    pairs = list(islice(layers.column_stream(m), 2 * m + 2))
    sums = [(0, 0), (0, 0), *islice(cell_stream(m), 2 * m + 2)]
    for side in (0, 1):  # counts, then orders
        weighted = [weighted_sum(pair[side]) for pair in pairs]
        values = [item[side] for item in sums]
        assert [a - 2 * b + c for a, b, c in zip(values[2:], values[1:], values)] == weighted


@pytest.mark.parametrize("m", [1, 3, 7])
def test_jump_falls_back_to_layer_polynomial(m, monkeypatch):
    # an uncertified Berlekamp-Massey answer sends p to layers alone
    taken = []
    monkeypatch.setattr(aggregate, "sequence_annihilator", lambda terms: None)
    monkeypatch.setattr(aggregate, "layer_polynomial",
                        lambda m: taken.append(m) or layer_polynomial(m))
    jump = _jumper(m)
    assert taken == [m]
    streamed = list(islice(cell_stream(m), 6 * m + 6))
    for n in range(2 * m + 3, 6 * m + 7):
        assert jump(n) == streamed[n - 1], n


def test_deep_jump_equals_stream():
    assert evaluate(3, 5000) == ProductResult(
        3, 5000, *next(islice(cell_stream(3), 4999, None)))


@pytest.mark.parametrize("m", range(1, 9))
def test_annihilator_holds_on_streamed_sums(m):
    q = annihilator(layer_polynomial(m))
    assert q.degree == 2 * m + 2
    streamed = list(islice(cell_stream(m), 100))
    for start in range(len(streamed) - q.degree):
        window = streamed[start:start + q.degree + 1]
        assert sum(c * count for c, (count, _) in zip(q.coefficients, window)) == 0
        assert sum(c * total for c, (_, total) in zip(q.coefficients, window)) == 0


def test_annihilator_never_takes_faddeev_leverrier(monkeypatch):
    # p off the seeds' second differences is certified for every m <= 60
    def refused(matrix):
        raise AssertionError(f"char_poly called at m={matrix.order}")

    found = []

    def recorded(terms):
        found.append(exactmath.sequence_annihilator(terms))
        return found[-1]

    monkeypatch.setattr(exactmath, "char_poly", refused)
    monkeypatch.setattr(layers, "char_poly", refused)
    monkeypatch.setattr(aggregate, "layer_polynomial",
                        lambda m: pytest.fail(f"layer_polynomial called at m={m}"))
    monkeypatch.setattr(aggregate, "sequence_annihilator", recorded)
    for m in range(1, 61):
        _jumper(m)
        assert found[-1] is not None and found[-1].degree == m


def test_jump_checks_report_a_wrong_jump(monkeypatch):
    # verify.jump_checks reads the jumper from the engine, so a wrong jump
    # fails the check and its detail names the first bad cell
    monkeypatch.setattr(aggregate, "_jumper", lambda m: lambda n: (0, 0))
    checks = verify.jump_checks(3, 40)
    assert [check.ok for check in checks] == [False, False, False]
    assert checks[2].detail.startswith("m=3 n=9: jump (0, 0), stream ")


def test_jump_domain_errors():
    with pytest.raises(ValueError):
        _jumper(3)(0)
    with pytest.raises(ValueError):
        _jumper(0)
    with pytest.raises(ValueError):
        evaluate(3, 0)
    with pytest.raises(ValueError):
        evaluate(0, 3)


def test_public_surface():
    assert consets.__all__ == ["ProductResult", "cell_stream", "evaluate"]
    for name in consets.__all__:
        assert getattr(consets, name) is getattr(aggregate, name), name
    # the reference routes live in their own modules only
    for name in ("census", "char_poly"):
        with pytest.raises(AttributeError, match=repr(name)):
            getattr(consets, name)
    assert consets.oracle.census is census
    assert consets.exactmath.char_poly is exactmath.char_poly
