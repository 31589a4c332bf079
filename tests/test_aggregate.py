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
      on both sides of n = 4m+4, the last Hankel term: up to there it
      streams and never builds p, Q or a power of x, and from 4m+5 on,
      the first horizon Q decides, it jumps
    - the annihilator holds on the streamed sums, and equals p^2 (x-1)^2
      expanded by a schoolbook product
    - no production path builds the literal layer matrix, applies it or
      takes the binomial weights
    - the stream's second differences equal the weighted count and order
      columns
    - a jump walks the stream once, for its 4m+4 Hankel terms, and the
      count columns once more, inside ``layer_polynomial``, for p: never
      by Faddeev-LeVerrier for m <= 60, and by it where Berlekamp-Massey
      is not certified
    - the jump equals the stream at random n of both parities past the
      seeds, m = 1..12, and the linear read-out sum_j r_j a(j+1), with
      r = x^(n-1) mod Q, at n = 1001, 1002 and 10^4
    - each jump powers x once, to the half power floor((n-1)/2)
    - verify.jump_checks fails, naming m and n, when the jump is wrong;
      it visits the first horizons past the seeds, the first two whose
      half power is reduced mod Q, and n_max - 1 and n_max; a Q one off
      in one coefficient, or a reduction by such a Q alone, fails first
      at 4m+5, and such a Q leaves the jump right up to 4m+4
    - the stream seeded with Decimal(1) in the CLI's exact context is the
      int stream item for item, in Decimals
    - the package exports exactly the engine's three names; the census
      and the polynomial resolve from their own modules only
"""

import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import consets
from consets import aggregate, cli, exactmath, layers, verify
from consets.aggregate import ProductResult, _jumper, annihilator, cell_stream, evaluate
from consets.exactmath import IntPolynomial, x_power_mod
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
def test_decimal_twin_equals_the_int_stream(m):
    with localcontext(cli.EXACT):
        twin = list(islice(cell_stream(m, Decimal(1)), 300))
    assert all(type(value) is Decimal for row in twin for value in row)
    assert twin == list(islice(cell_stream(m), 300))


@pytest.mark.parametrize("m", range(1, 11))
def test_evaluate_across_the_engine_crossover(m, monkeypatch):
    # n = 4m+4 is the last Hankel term and streams; n = 4m+5, the first
    # horizon whose half power is reduced mod Q, jumps
    last = 4 * m + 4
    streamed = list(islice(cell_stream(m), last + 1))
    jumped = []
    monkeypatch.setattr(aggregate, "_jumper", lambda m: jumped.append(m) or _jumper(m))
    assert evaluate(m, last) == ProductResult(m, last, *streamed[last - 1])
    assert jumped == []
    assert evaluate(m, last + 1) == ProductResult(m, last + 1, *streamed[last])
    assert jumped == [m]


def test_evaluate_streams_through_the_hankel_terms(monkeypatch):
    # for n <= 4m+4 the n-th stream item is the answer: no jumper, no p
    # and no power of x is built
    expected = {m: list(islice(cell_stream(m), 4 * m + 4)) for m in range(1, 13)}

    def refused(*args):
        raise AssertionError("evaluate left the stream")

    for name in ("_jumper", "layer_polynomial", "x_power_mod"):
        monkeypatch.setattr(aggregate, name, refused)
    for m, streamed in expected.items():
        for n, item in enumerate(streamed, start=1):
            assert evaluate(m, n) == ProductResult(m, n, *item), (m, n)


@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_a_jump_walks_the_columns_once(m, monkeypatch):
    walks = []
    real = layers.count_columns

    def counted(m, one=1):
        walks.append(0)
        for column in real(m, one):
            walks[-1] += 1
            yield column

    monkeypatch.setattr(layers, "count_columns", counted)
    jump = _jumper(m)
    # 4m+4 Hankel terms, the last one's totals read off one more column;
    # then layer_polynomial's totals T(1..2m), read off columns 2..2m+1
    assert walks == [4 * m + 5, 2 * m + 1]
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
    monkeypatch.setattr(layers, "char_poly", refused)
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
    # an uncertified Berlekamp-Massey answer sends layer_polynomial to
    # Faddeev-LeVerrier, and the jump takes p from there
    taken = []
    monkeypatch.setattr(layers, "sequence_annihilator", lambda terms: None)
    monkeypatch.setattr(layers, "char_poly",
                        lambda matrix: taken.append(matrix.order) or exactmath.char_poly(matrix))
    jump = _jumper(m)
    assert taken == [m]
    streamed = list(islice(cell_stream(m), 6 * m + 6))
    for n in range(2 * m + 3, 6 * m + 7):
        assert jump(n) == streamed[n - 1], n


_stream = cache(lambda m: list(islice(cell_stream(m), 400)))
_cached_jumper = cache(_jumper)


@st.composite
def _jumped_cells(draw):
    m = draw(st.integers(1, 12))
    return m, draw(st.integers(2 * m + 3, 400))


@settings(max_examples=200, deadline=None)
@given(_jumped_cells())
@example((1, 5)).via("the first jumped cell, n - 1 even")
@example((1, 6)).via("n - 1 odd")
@example((12, 399)).via("deep, n - 1 even")
@example((12, 400)).via("deep, n - 1 odd")
def test_jump_equals_stream_at_random_horizons(cell):
    m, n = cell
    assert _cached_jumper(m)(n) == _stream(m)[n - 1]


@pytest.mark.parametrize("m", [1, 3, 6, 10])
def test_deep_jump_equals_the_linear_read_out(m):
    # the read-out the Hankel form replaced: with r = x^(n-1) mod Q,
    # a(n) = sum_j r_j a(j+1) over the 2m+2 seeds
    seeds = list(islice(cell_stream(m), 2 * m + 2))
    modulus = annihilator(layer_polynomial(m))
    jump = _jumper(m)
    for n in (1001, 1002, 10 ** 4):
        remainder = x_power_mod(n - 1, modulus)
        linear = tuple(sum(r * a for r, a in zip(remainder, column)) for column in zip(*seeds))
        assert jump(n) == linear, n


@pytest.mark.parametrize("m", [1, 4, 9])
def test_a_jump_powers_x_once_to_the_half_power(m, monkeypatch):
    powers = []

    def counted(e, modulus):
        powers.append(e)
        return x_power_mod(e, modulus)

    jump = _jumper(m)
    monkeypatch.setattr(aggregate, "x_power_mod", counted)
    for n in (1, 2, 2 * m + 3, 2 * m + 4, 4 * m + 5, 4 * m + 6, 777, 778):
        powers.clear()
        jump(n)
        assert powers == [(n - 1) // 2], n


def test_deep_jump_equals_stream():
    assert evaluate(3, 5000) == ProductResult(
        3, 5000, *next(islice(cell_stream(3), 4999, None)))


def _schoolbook(a, b):
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    return product


@pytest.mark.parametrize("m", range(1, 9))
def test_annihilator_is_p_squared_times_x_minus_one_squared(m):
    p = layer_polynomial(m).coefficients
    expected = _schoolbook(_schoolbook(p, p), (1, -2, 1))
    assert annihilator(layer_polynomial(m)).coefficients == tuple(expected)


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
    # p off layer_polynomial's totals is certified for every m <= 60
    def refused(matrix):
        raise AssertionError(f"char_poly called at m={matrix.order}")

    found = []

    def recorded(terms):
        found.append(exactmath.sequence_annihilator(terms))
        return found[-1]

    monkeypatch.setattr(exactmath, "char_poly", refused)
    monkeypatch.setattr(layers, "char_poly", refused)
    monkeypatch.setattr(layers, "sequence_annihilator", recorded)
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


def test_jump_checks_visit_the_horizons(monkeypatch):
    # one check per m; per m, 2m+3..2m+6, 4m+5 and 4m+6, n_max - 1, n_max
    visited = {}

    def recorded(m):
        jump = _jumper(m)
        return lambda n: visited.setdefault(m, []).append(n) or jump(n)

    monkeypatch.setattr(aggregate, "_jumper", recorded)
    checks = verify.jump_checks(4, 40)
    assert [check.ok for check in checks] == [True] * 4
    assert {check.where for check in checks} == {f"m={m} n<=40" for m in range(1, 5)}
    assert visited == {1: [5, 6, 7, 8, 9, 10, 39, 40], 2: [7, 8, 9, 10, 13, 14, 39, 40],
                       3: [9, 10, 11, 12, 17, 18, 39, 40], 4: [11, 12, 13, 14, 21, 22, 39, 40]}
    # n_max - 1 = 0 is no horizon
    visited.clear()
    assert [check.ok for check in verify.jump_checks(2, 1)] == [True, True]
    assert visited == {1: [1], 2: [1]}


def _one_off(coefficients, k):
    return IntPolynomial([c + (i == k) for i, c in enumerate(coefficients)])


@pytest.mark.parametrize("m, k", [(1, 0), (2, 3), (4, 9)])
def test_jump_checks_catch_a_wrong_annihilator(m, k, monkeypatch):
    # Q one off in coefficient k for this m alone: the Hankel terms come
    # off the stream, and below 4m+5 the half power is never reduced, so
    # the jump stays right up to 4m+4 and 4m+5 is the first bad horizon
    real = aggregate.annihilator

    def wrong(p):
        q = real(p)
        return _one_off(q.coefficients, k) if p.degree == m else q

    monkeypatch.setattr(aggregate, "annihilator", wrong)
    jump = _jumper(m)
    streamed = list(islice(cell_stream(m), 4 * m + 4))
    assert [jump(n) for n in range(1, 4 * m + 5)] == streamed
    checks = verify.jump_checks(5, 60)
    assert [check.ok for check in checks] == [n != m for n in range(1, 6)]
    assert checks[m - 1].detail.startswith(f"m={m} n={4 * m + 5}: jump ")


@pytest.mark.parametrize("m, k", [(1, 0), (3, 5), (5, 11)])
def test_jump_checks_catch_a_wrong_reduction(m, k, monkeypatch):
    # the Hankel terms are right but the half power is reduced by a Q one
    # off in coefficient k: below 4m+5 the half power has degree under
    # 2m+2 and is never reduced, so 4m+5 is the first bad horizon
    degree = 2 * m + 2

    def wrong(e, modulus):
        if modulus.degree == degree:
            modulus = _one_off(modulus.coefficients, k)
        return x_power_mod(e, modulus)

    monkeypatch.setattr(aggregate, "x_power_mod", wrong)
    checks = verify.jump_checks(5, 60)
    assert [check.ok for check in checks] == [n != m for n in range(1, 6)]
    assert checks[m - 1].detail.startswith(f"m={m} n={4 * m + 5}: jump ")


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
