"""Whole-graph quantities: count, total order, average, density.

Claims covered:
    - small-cell anchors match exhaustive listings
    - degenerate families have their closed-form counts and averages
    - the convolution route to the average agrees with the stream route
    - every desk-scale cell matches the census exactly
    - the average and density are derived from N and S, never passed
      in; D = S/(N·mn); the bound 1 <= A <= mn is enforced on the
      integers, accepting both edges S = N and S = mn·N and refusing one
      past either; the average is held, not reduced again when read
    - the engine's m = 2 rows (a jumped cell, a table, a ladder row) take
      no gcd of two operands wider than 128 bits, where the public
      constructor and m = 3 take one; D(n) is a positive multiple of
      gcd(N, S), and reduces A to Fraction's pair, at hypothesis-drawn
      n up to 3·10^5; only the cell's own N and S reduce by it; an
      engine row pickles to an equal record; D(n) + 1 in place of D(n)
      makes ``verify --ladder`` exit 1 on the four average checks
    - a deep cell holds O(m) integers, not every column
    - the recurrence jump equals the stream, and ``evaluate`` equals it
      on both sides of n = 4m+4, the last Hankel term: up to there it
      streams and never builds p, Q or a power of x, and from 4m+5 on,
      the first horizon Q decides, it jumps, modulo p for
      2 <= m <= P_JUMP_MAX_M and modulo Q at m = 1 and at P_JUMP_MAX_M + 1
    - the annihilator holds on the streamed sums, and equals p^2 (x-1)^2
      expanded by a schoolbook product
    - no production path builds the literal layer matrix, applies it or
      takes the binomial weights
    - the stream's second differences equal the weighted count and order
      columns
    - a jump walks the count columns once: modulo Q for its 4m+4 Hankel
      terms, modulo p for its 2m items, and either way the totals
      T(1..2m) that give p come off that walk, never by Faddeev-LeVerrier
    - where Berlekamp-Massey is not certified, both jumps refuse at setup
      and compute and charpoly exit 3 with one ``internal error`` line
      and no row
    - the jump modulo Q equals the stream at random n of both parities
      past the seeds, m = 1..12, and the linear read-out sum_j r_j a(j+1),
      with r = x^(n-1) mod Q, at n = 1001, 1002 and 10^4
    - the jump modulo p equals the stream at random n of both parities,
      n = 1..400, m = 2..P_JUMP_MAX_M, and the jump modulo Q at n = 10^4
      for m = 2..12; the census equals it at (3, 17) and (4, 21)
    - for m = 13..24 both jumps equal the stream at 4m+5, 4m+6, 6m+6 and
      6m+7, a range that reaches a p whose Berlekamp-Massey needs a
      third CRT prime (three at m = 20, against two at m = 10)
    - each jump powers x once: modulo Q to floor((n-1)/2), modulo p to
      floor((n+1)/2), and ``evaluate`` past 4m+4 powers modulo p alone
    - verify.jump_checks fails, naming the route, m and n, when a jump is
      wrong; it visits, for both routes, the first horizons past the
      seeds, the first two whose half power is reduced mod Q, and
      n_max - 1 and n_max; a Q one off in one coefficient, or a reduction
      by such a Q alone, fails first at 4m+5, and such a Q leaves the
      jump right up to 4m+4; a reduction by a p one off makes the p-jump's
      division inexact at 2m+3, the first horizon it visits
    - one integer of phi, chi or g off by one makes ``compute`` exit 3
      with one ``internal error`` line and no row; a faked p with
      p(1) = 0 (m = 1's own p among them) or a repeated root is refused
      at setup
    - the stream seeded with Decimal(1) in the CLI's exact context is the
      int stream item for item, in Decimals
    - the package exports exactly the engine's three names; the census
      and the polynomial resolve from their own modules only
"""

import math
import pickle
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import consets
from conftest import recording, schoolbook
from consets import aggregate, cli, exactmath, layers, oracle, recurrence, verify
from consets.aggregate import (
    P_JUMP_MAX_M,
    ProductResult,
    _jumper,
    _p_jumper,
    annihilator,
    cell_stream,
    evaluate,
)
from consets.exactmath import IntPolynomial, x_power_mod
from consets.layers import layer_polynomial, profile_table, weighted_sum
from consets.oracle import census, complete_path_product, enumerated_census
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
            total = sum((n - k + 1) * layer_order_sum_convolution(k, counts)
                        for k in range(1, n + 1))
            result = evaluate(m, n)
            assert Fraction(total, result.count) == result.average


def test_density_bounds():
    for m in range(1, 9):
        for n in range(1, 4 * m + 9):
            result = evaluate(m, n)
            assert result.density == Fraction(result.total, result.count * m * n), (m, n)
            assert Fraction(1, m * n) <= result.density <= 1


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


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (3, 2), (8, 40), (2, 2000)])
def test_result_range_is_checked_on_the_integers(m, n):
    # 1 <= A <= mn is N <= S <= mn·N: both edges are accepted, one past
    # either is refused
    count = evaluate(m, n).count
    for total in (count, m * n * count):
        result = ProductResult(m, n, count, total)
        assert result.average == Fraction(total, count)
        assert result.density == Fraction(total, count * m * n)
        assert result.average is result.average  # held, never reduced again
    for total in (count - 1, m * n * count + 1):
        with pytest.raises(ArithmeticError, match="average outside"):
            ProductResult(m, n, count, total)


def test_an_m_2_row_takes_no_gcd_of_two_big_numbers(capsys, spy):
    # the engine's m = 2 rows reduce A by remainders modulo the small
    # multiple D(n): a jumped cell, a table and a ladder row
    gcds = [spy(module, "gcd") for module in (math, aggregate, cli)]  # math's: Fraction's

    def wide():  # the operand widths of each gcd of two operands wider than 128 bits
        widths = [tuple(abs(x).bit_length() for x in args) for calls in gcds for args in calls]
        return [w for w in widths if sum(width > 128 for width in w) >= 2]

    result = evaluate(2, 4000)
    assert cli.main(["table", "--m", "2", "--n-max", "300"]) == 0
    assert cli.main(["ladder", "--n", "4000", "--format", "json"]) == 0
    capsys.readouterr()
    assert wide() == []
    # the public constructor, and the engine at m = 3, take the big gcd
    assert ProductResult(2, 4000, result.count, result.total) == result
    assert len(wide()) == 1 and min(wide()[0]) > 5000
    evaluate(3, 4000)
    assert len(wide()) == 2


@pytest.mark.parametrize("m, n", [(1, 30), (2, 1), (2, 12), (2, 13), (2, 4000), (3, 100)])
def test_an_engine_row_pickles_to_an_equal_record(m, n):
    # a row pickles through ProductResult(m, n, count, total), which
    # reduces by Fraction: the same record, with A of type Fraction
    row = evaluate(m, n)
    again = pickle.loads(pickle.dumps(row))
    assert again == row and hash(again) == hash(row) and repr(again) == repr(row)
    assert type(row.average) is type(again.average) is Fraction
    assert (row.average.numerator, row.average.denominator) == (
        again.average.numerator, again.average.denominator)


def test_only_the_cells_own_sums_reduce_by_the_multiple():
    # D(n) bounds gcd(N, S) for the cell's N and S alone: of (N, N) the
    # public constructor gives 1, while reducing by gcd(D, N mod D) would
    # leave N/g over N/g
    count = evaluate(2, 2000).count
    assert ProductResult(2, 2000, count, count).average == 1
    assert ProductResult.of_cell(2, 2000, count, count).average.denominator > 1


@settings(max_examples=4, deadline=None)
@given(st.integers(5001, 3 * 10 ** 5))
@example(3 * 10 ** 5).via("the deepest horizon measured")
def test_the_gcd_multiple_gives_the_gcd_deep(n):
    count, total = _p_jumper(2)(n)
    multiple, common = aggregate.ladder_gcd_multiple(n), math.gcd(count, total)
    assert multiple > 0 and multiple % common == 0
    average = ProductResult.of_cell(2, n, count, total).average
    assert (average.numerator, average.denominator) == (total // common, count // common)


def test_a_corrupted_gcd_multiple_fails_verify(monkeypatch, capsys):
    # D(n) + 1 shares no factor with gcd(N, S) > 1, so the engine's A is
    # left unreduced at such an n; verify --ladder, otherwise clean, fails
    # the ladder's four average checks and exits 1
    assert cli.main(["verify", "--ladder"]) == 0
    assert "PASS  ladder gcd multiple  [n=1000,1001,4000,4001]" in capsys.readouterr().out
    real = aggregate.ladder_gcd_multiple
    monkeypatch.setattr(aggregate, "ladder_gcd_multiple", lambda n: real(n) + 1)
    assert cli.main(["verify", "--ladder"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert [line.split("  ")[1] for line in failed] == [
        "ladder average closed form", "ladder average vs published formula",
        "ladder density closed form", "ladder gcd multiple"]
    assert failed[-1] == ("FAIL  ladder gcd multiple  [n=1000,1001,4000,4001]: "
                          "n=1000: engine divides N and S by 1, gcd(N, S) = 8")


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


@pytest.mark.parametrize("m", range(13, 25))
def test_jump_equals_stream_past_m_12(m):
    # the jump modulo p too, though evaluate takes it only up to P_JUMP_MAX_M
    streamed = list(islice(cell_stream(m), 6 * m + 7))
    for jump in (_jumper(m), _p_jumper(m)):
        for n in (4 * m + 5, 4 * m + 6, 6 * m + 6, 6 * m + 7):
            assert jump(n) == streamed[n - 1], n


def test_wider_layers_take_more_crt_primes_for_p(monkeypatch):
    # the range above reaches p whose coefficients outgrow two 61-bit primes
    drawn = []
    real = exactmath._primes

    def counted():
        for q in real():
            drawn[-1] += 1
            yield q

    monkeypatch.setattr(exactmath, "_primes", counted)
    for m in (10, 20):
        drawn.append(0)
        _jumper(m)
    assert drawn == [2, 3]


@pytest.mark.parametrize("m", range(1, 11))
def test_decimal_twin_equals_the_int_stream(m):
    with localcontext(cli.EXACT):
        twin = list(islice(cell_stream(m, Decimal(1)), 300))
    assert all(type(value) is Decimal for row in twin for value in row)
    assert twin == list(islice(cell_stream(m), 300))


@pytest.mark.parametrize("m", [*range(1, 11), P_JUMP_MAX_M, P_JUMP_MAX_M + 1])
def test_evaluate_across_the_engine_crossover(m, spy):
    # n = 4m+4 is the last Hankel term and streams; n = 4m+5, the first
    # horizon whose half power is reduced mod Q, jumps: modulo p for
    # 2 <= m <= P_JUMP_MAX_M, modulo Q at m = 1 and above that
    last = 4 * m + 4
    streamed = list(islice(cell_stream(m), last + 1))
    jumped = {"Q": spy(aggregate, "_jumper"), "p": spy(aggregate, "_p_jumper")}
    assert evaluate(m, last) == ProductResult(m, last, *streamed[last - 1])
    assert jumped == {"Q": [], "p": []}
    assert evaluate(m, last + 1) == ProductResult(m, last + 1, *streamed[last])
    route = "p" if 2 <= m <= P_JUMP_MAX_M else "Q"
    assert jumped == {"Q": [], "p": [], route: [(m,)]}


def test_evaluate_streams_through_the_hankel_terms(refuse):
    # for n <= 4m+4 the n-th stream item is the answer: no jumper, no p
    # and no power of x is built
    expected = {m: list(islice(cell_stream(m), 4 * m + 4)) for m in range(1, 13)}
    refuse(aggregate, "_jumper", "_p_jumper")
    refuse(exactmath, "sequence_annihilator", "x_power_mod")
    for m, streamed in expected.items():
        for n, item in enumerate(streamed, start=1):
            assert evaluate(m, n) == ProductResult(m, n, *item), (m, n)


def _column_walks(monkeypatch):
    # the number of columns each walk of count_columns takes
    walks = []
    real = layers.count_columns

    def counted(m, one=1):
        walks.append(0)
        for column in real(m, one):
            walks[-1] += 1
            yield column

    monkeypatch.setattr(layers, "count_columns", counted)
    return walks


@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_a_jump_walks_the_columns_once(m, monkeypatch):
    walks = _column_walks(monkeypatch)
    jump = _jumper(m)
    # modulo Q: 4m+4 Hankel terms, the last one's totals read off one more
    # column; p's totals T(1..2m) are second differences of their counts
    assert walks == [4 * m + 5]
    assert jump(4 * m + 5) == next(islice(cell_stream(m), 4 * m + 4, None))


@pytest.mark.parametrize("m", [2, 5, 12])
def test_a_p_jump_walks_the_columns_once(m, monkeypatch):
    walks = _column_walks(monkeypatch)
    jump = _p_jumper(m)
    # modulo p: 2m items, whose second differences are T(1..2m) and U(1..2m)
    assert walks == [2 * m + 1]
    assert jump(4 * m + 5) == next(islice(cell_stream(m), 4 * m + 4, None))


def test_production_paths_never_build_the_literal_matrix(refuse):
    # the engine steps by the factored layer matrix and reads the totals
    # off its last row; the literal matrix and the binomial weights are
    # left to verify and the tests
    expected = {m: list(islice(cell_stream(m), 4 * m + 5)) for m in range(1, 13)}
    polynomials = {m: layer_polynomial(m) for m in range(1, 13)}
    refuse(layers, "recurrence_matrix", "footprint_weights")
    refuse(exactmath, "char_poly")
    refuse(recurrence.IntMatrix, "apply")
    for m, streamed in expected.items():
        seeds = 2 * m + 2
        assert list(islice(cell_stream(m), 4 * m + 5)) == streamed
        assert profile_table(m, seeds) == list(islice(layers.count_columns(m), seeds))
        for n in (seeds, seeds + 1):
            assert evaluate(m, n) == ProductResult(m, n, *streamed[n - 1])
        assert _jumper(m)(4 * m + 5) == streamed[-1]
        if m >= 2:
            assert _p_jumper(m)(4 * m + 5) == streamed[-1]
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
def test_an_uncertified_p_stops_the_jumps(m, monkeypatch, refuse, capsys):
    # with no Berlekamp-Massey certificate no route stands in for p: both
    # jumps refuse at setup, and compute and charpoly exit 3 with no row;
    # Berlekamp-Massey reports complexity 0, below the degree m
    monkeypatch.setattr(exactmath, "_linear_complexity", lambda terms, q: (0, [1]))
    refuse(exactmath, "char_poly", "x_power_mod")
    refuse(layers, "recurrence_matrix")
    refusal = f"Berlekamp-Massey did not certify p of degree {m}"
    for jumper in (_jumper, _p_jumper) if m >= 2 else (_jumper,):
        with pytest.raises(ArithmeticError, match=f"^{refusal}$"):
            jumper(m)
    for argv in (["compute", "--m", str(m), "--n", str(4 * m + 5)], ["charpoly", "--m", str(m)]):
        assert cli.main(argv) == 3, argv
        assert capsys.readouterr() == ("", f"internal error: ArithmeticError: {refusal}\n")


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


_cached_p_jumper = cache(_p_jumper)


@st.composite
def _p_jumped_cells(draw):
    m = draw(st.integers(2, P_JUMP_MAX_M))
    return m, draw(st.integers(1, 400))


@settings(max_examples=200, deadline=None)
@given(_p_jumped_cells())
@example((2, 1)).via("the first horizon")
@example((2, 3)).via("the first reduced half power at m = 2, n + 1 even")
@example((2, 4)).via("n + 1 odd")
@example((P_JUMP_MAX_M, 399)).via("deep, n + 1 even")
@example((P_JUMP_MAX_M, 400)).via("deep, n + 1 odd")
def test_p_jump_equals_stream_at_random_horizons(cell):
    m, n = cell
    assert _cached_p_jumper(m)(n) == _stream(m)[n - 1]


@pytest.mark.parametrize("m", range(2, 13))
def test_p_jump_equals_the_q_jump_deep(m):
    assert _p_jumper(m)(10 ** 4) == _jumper(m)(10 ** 4)


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
def test_a_jump_powers_x_once_to_the_half_power(m, spy):
    powers = spy(exactmath, "x_power_mod")
    jump = _jumper(m)
    for n in (1, 2, 2 * m + 3, 2 * m + 4, 4 * m + 5, 4 * m + 6, 777, 778):
        powers.clear()
        jump(n)
        assert [(e, modulus.degree) for e, modulus in powers] == [((n - 1) // 2, 2 * m + 2)], n


@pytest.mark.parametrize("m", [2, 4, 9, P_JUMP_MAX_M])
def test_a_p_jump_powers_x_once_to_the_half_power_modulo_p(m, monkeypatch, spy):
    # x^(n+1) = x^o s^2 with s = x^((n+1) div 2), modulo p of degree m;
    # evaluate past 4m+4 powers x once, that way
    powers = spy(exactmath, "x_power_mod")
    jump = _p_jumper(m)
    for n in (1, 2, 2 * m + 3, 2 * m + 4, 4 * m + 5, 4 * m + 6, 777, 778):
        powers.clear()
        jump(n)
        assert [(e, modulus.degree) for e, modulus in powers] == [((n + 1) // 2, m)], n
    monkeypatch.setattr(aggregate, "_p_jumper", lambda m: jump)
    for n in (4 * m + 5, 4 * m + 6, 777, 778):
        powers.clear()
        evaluate(m, n)
        assert [(e, modulus.degree) for e, modulus in powers] == [((n + 1) // 2, m)], n


def test_deep_jump_equals_stream():
    assert evaluate(3, 5000) == ProductResult(
        3, 5000, *next(islice(cell_stream(3), 4999, None)))


@pytest.mark.parametrize("m", range(1, 9))
def test_annihilator_is_p_squared_times_x_minus_one_squared(m):
    p = layer_polynomial(m).coefficients
    expected = schoolbook(schoolbook(p, p), (1, -2, 1))
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


def test_annihilator_never_takes_faddeev_leverrier(refuse, spy):
    # p off layer_polynomial's totals is certified for every m <= 60: with
    # Faddeev-LeVerrier refused, the p that Q is built from is
    # sequence_annihilator's answer
    refuse(exactmath, "char_poly")
    found = spy(aggregate, "annihilator")
    for m in range(1, 61):
        _jumper(m)
        (p,) = found[-1]
        assert p.degree == m


Q_CHECK, P_CHECK = "recurrence jump vs stream", "recurrence jump modulo p vs stream"


def _by_route(checks):
    # the jump_checks results of each route, in order of m
    return {name: [check for check in checks if check.name == name] for name in (Q_CHECK, P_CHECK)}


def _wrong_jump_checks(name, route, label, monkeypatch):
    # verify.jump_checks reads each jumper from the engine, so a wrong jump
    # fails its route's checks alone, and the detail names the route and
    # the first bad cell
    monkeypatch.setattr(aggregate, name, lambda m: lambda n: (0, 0))
    checks = verify.jump_checks(3, 40)
    assert [check.name for check in checks] == [Q_CHECK, Q_CHECK, P_CHECK, Q_CHECK, P_CHECK]
    assert [check.ok for check in checks] == [check.name != route for check in checks]
    assert _by_route(checks)[route][-1].detail.startswith(f"m=3 n=9: {label} (0, 0), stream ")


def test_jump_checks_report_a_wrong_jump(monkeypatch):
    _wrong_jump_checks("_jumper", Q_CHECK, "Q-jump", monkeypatch)


def test_jump_checks_report_a_wrong_p_jump(monkeypatch):
    _wrong_jump_checks("_p_jumper", P_CHECK, "p-jump", monkeypatch)


def test_jump_checks_visit_the_horizons(monkeypatch):
    # one check per route and m; per m, 2m+3..2m+6, 4m+5 and 4m+6,
    # n_max - 1, n_max, the same horizons for both routes
    visited = {}

    def recorder(route, real):
        return lambda m: recording(real(m), visited.setdefault((route, m), []))

    monkeypatch.setattr(aggregate, "_jumper", recorder("Q", _jumper))
    monkeypatch.setattr(aggregate, "_p_jumper", recorder("p", _p_jumper))
    checks = verify.jump_checks(4, 40)
    assert [check.ok for check in checks] == [True] * 7
    routes = _by_route(checks)
    assert [check.where for check in routes[Q_CHECK]] == [f"m={m} n<=40" for m in range(1, 5)]
    assert [check.where for check in routes[P_CHECK]] == [f"m={m} n<=40" for m in range(2, 5)]
    horizons = {1: [5, 6, 7, 8, 9, 10, 39, 40], 2: [7, 8, 9, 10, 13, 14, 39, 40],
                3: [9, 10, 11, 12, 17, 18, 39, 40], 4: [11, 12, 13, 14, 21, 22, 39, 40]}
    assert visited == {**{("Q", m): [(n,) for n in ns] for m, ns in horizons.items()},
                       **{("p", m): [(n,) for n in ns] for m, ns in horizons.items() if m >= 2}}
    # n_max - 1 = 0 is no horizon
    visited.clear()
    assert [check.ok for check in verify.jump_checks(2, 1)] == [True, True, True]
    assert visited == {("Q", 1): [(1,)], ("Q", 2): [(1,)], ("p", 2): [(1,)]}


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
    routes = _by_route(verify.jump_checks(5, 60))
    assert [check.ok for check in routes[Q_CHECK]] == [n != m for n in range(1, 6)]
    assert routes[Q_CHECK][m - 1].detail.startswith(f"m={m} n={4 * m + 5}: Q-jump ")
    # the jump modulo p builds no Q
    assert [check.ok for check in routes[P_CHECK]] == [True] * 4


@pytest.mark.parametrize("m, k", [(1, 0), (3, 5), (5, 11)])
def test_jump_checks_catch_a_wrong_reduction(m, k, monkeypatch):
    # the Hankel terms are right but the half power is reduced by a Q one
    # off in coefficient k: below 4m+5 the half power has degree under
    # 2m+2 and is never reduced, so 4m+5 is the first bad horizon
    target = annihilator(layer_polynomial(m))

    def wrong(e, modulus):
        if modulus == target:
            modulus = _one_off(modulus.coefficients, k)
        return x_power_mod(e, modulus)

    monkeypatch.setattr(exactmath, "x_power_mod", wrong)
    routes = _by_route(verify.jump_checks(5, 60))
    assert [check.ok for check in routes[Q_CHECK]] == [n != m for n in range(1, 6)]
    assert routes[Q_CHECK][m - 1].detail.startswith(f"m={m} n={4 * m + 5}: Q-jump ")
    assert [check.ok for check in routes[P_CHECK]] == [True] * 4


@pytest.mark.parametrize("m, k", [(2, 0), (3, 2), (5, 4)])
def test_jump_checks_catch_a_wrong_reduction_modulo_p(m, k, monkeypatch):
    # the half power reduced by a p one off in coefficient k, for this m
    # alone: the final division is inexact at the first horizon visited,
    # 2m+3, so the battery stops there (exit 3), and the other m pass
    target = layer_polynomial(m)

    def wrong(e, modulus):
        if modulus == target:
            modulus = _one_off(modulus.coefficients, k)
        return x_power_mod(e, modulus)

    monkeypatch.setattr(exactmath, "x_power_mod", wrong)
    assert all(check.ok for check in verify.jump_checks(m - 1, 60))
    with pytest.raises(ArithmeticError, match=f"^jump modulo p inexact at m={m} n={2 * m + 3}$"):
        verify.jump_checks(m, 60)


def test_jump_domain_errors():
    with pytest.raises(ValueError):
        _jumper(3)(0)
    with pytest.raises(ValueError):
        _jumper(0)
    with pytest.raises(ValueError):
        _p_jumper(0)
    with pytest.raises(ValueError):
        _p_jumper(3)(-2)
    # m = 1 has p = x - 1, so p(1) = 0: that cell jumps modulo Q alone
    with pytest.raises(ArithmeticError, match="p\\(1\\) = 0 at m=1"):
        _p_jumper(1)
    with pytest.raises(ValueError):
        evaluate(3, 0)
    with pytest.raises(ValueError):
        evaluate(0, 3)


@pytest.mark.parametrize("m, n", [(3, 17), (4, 21)])
def test_census_equals_the_p_jump_at_its_first_cells(m, n, monkeypatch, spy):
    # the first cells evaluate jumps modulo p at m = 3 and 4: 51 and 84
    # vertices, past the census limit, which is lifted for this test only;
    # the census shares no code with either jump
    monkeypatch.setattr(oracle, "MAX_CAP", m * n)
    report = enumerated_census(complete_path_product(m, n).graph)
    routes = spy(aggregate, "_p_jumper")
    result = evaluate(m, n)
    assert routes == [(m,)]
    assert (result.count, result.total) == (report.count, report.total_order)


def _corrupted_closure(jump, name, k):
    """Add 1 to entry k of the list the jump closes over under ``name``."""
    cell = jump.__closure__[jump.__code__.co_freevars.index(name)]
    values = list(cell.cell_contents)
    values[k] += 1
    cell.cell_contents = values


@pytest.mark.parametrize("datum", ["phi", "chi", "g"])
def test_a_corrupted_p_jump_exits_3(datum, monkeypatch, capsys):
    # one integer of phi (N's functional), chi (S's, modulo p^2) or g (the
    # scaled inverse of p') off by one: a final division is inexact, so
    # compute prints no row and exits 3 with one line
    if datum == "g":
        real = exactmath.inverse_mod

        def corrupted(a, modulus):
            scale, g = real(a, modulus)
            return scale, [*g[:2], g[2] + 1, *g[3:]]

        monkeypatch.setattr(exactmath, "inverse_mod", corrupted)
        jump = _p_jumper(6)
    else:
        jump = _p_jumper(6)
        _corrupted_closure(jump, datum, 3 if datum == "phi" else 1)
    monkeypatch.setattr(aggregate, "_p_jumper", lambda m: jump)
    code = cli.main(["compute", "--m", "6", "--n", "5000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: ArithmeticError: jump modulo p inexact at m=6 n=5000\n"


@pytest.mark.parametrize("fake, refusal", [
    ((-1, 0, 1), "p\\(1\\) = 0 at m=2"),  # x^2 - 1
    ((1, 2, 1), "p has a repeated root at m=2"),  # (x + 1)^2, p(1) = 4
])
def test_a_p_jump_refuses_a_faked_p_at_setup(fake, refusal, monkeypatch, capsys, spy):
    monkeypatch.setattr(exactmath, "sequence_annihilator", lambda totals: IntPolynomial(fake))
    powered = spy(exactmath, "x_power_mod")
    with pytest.raises(ArithmeticError, match=f"^{refusal}: no jump modulo p$"):
        _p_jumper(2)
    assert powered == []
    assert cli.main(["compute", "--m", "2", "--n", "100"]) == 3
    assert capsys.readouterr().err.startswith("internal error: ArithmeticError: ")


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
