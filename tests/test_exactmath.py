"""Exact arithmetic substrate: matrices, characteristic polynomials, x^e mod p.

Claims covered:
    - matrix product, apply, symmetry, trace behave exactly
    - Faddeev-LeVerrier characteristic polynomials match hand values, and
      an inexact trace division raises
    - every layer matrix annihilates its own characteristic polynomial
    - Bareiss determinant agrees with the charpoly constant term, and with
      cofactor expansion on matrices whose pivots are not +-1, a row swap
      included
    - the multi-modular Berlekamp-Massey annihilator returns exactly the
      recurrence of a sequence, and raises an ArithmeticError naming d
      where the degree-d annihilator is not unique or not integral
    - its primes are the primes below 2^61, largest first: the table of
      the first 16 equals a Miller-Rabin scan down from 2^61 - 1, and the
      generator goes on past it without a gap
    - polynomial squares and x^e mod a monic polynomial are exact
    - inverse_mod gives R and g with g a = R mod a monic polynomial, R the
      determinant of multiplication by a up to sign (a cofactor expansion),
      and R = 0 with no g where a shares a factor with the modulus; a zero
      first pivot is swapped
    - Fraction construction always lands on the reduced canonical form
"""

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import schoolbook
from consets.exactmath import (
    _FIRST_PRIMES,
    _is_prime,
    _primes,
    IntPolynomial,
    char_poly,
    inverse_mod,
    poly_square,
    sequence_annihilator,
    x_power_mod,
)
from consets.layers import recurrence_matrix
from consets.recurrence import IntMatrix


# -- matrices ----------------------------------------------------------------

def test_identity_product_is_neutral():
    a2 = recurrence_matrix(2)
    assert IntMatrix.identity(2) @ a2 == a2
    assert a2 @ IntMatrix.identity(2) == a2


def test_square_of_two_layer_matrix():
    a2 = recurrence_matrix(2)
    assert a2 @ a2 == IntMatrix([[3, 2], [4, 3]])


def test_square_of_three_layer_matrix_row_sums():
    a3 = recurrence_matrix(3)
    squared = a3 @ a3
    assert squared.apply((1, 1, 1)) == (23, 33, 37)


def test_product_order_mismatch_raises():
    with pytest.raises(ValueError, match="orders differ"):
        recurrence_matrix(2) @ recurrence_matrix(3)


def test_apply_and_power_agree():
    a3 = recurrence_matrix(3)
    vector = (1, 1, 1)
    for _ in range(4):
        vector = a3.apply(vector)
    assert (a3 @ a3 @ a3 @ a3).apply((1, 1, 1)) == vector


def test_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        IntMatrix([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError, match="positive order"):
        IntMatrix([])
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])


def test_transpose_and_symmetry():
    m = IntMatrix([[1, 2], [3, 4]])
    assert not m.is_symmetric
    assert (m + IntMatrix([[1, 3], [2, 4]])).is_symmetric


# -- characteristic polynomials ----------------------------------------------

def test_charpoly_two_layers():
    assert char_poly(recurrence_matrix(2)).coefficients == (-1, -2, 1)


def test_charpoly_three_layers():
    poly = char_poly(recurrence_matrix(3))
    assert poly.coefficients == (1, -3, -5, 1)
    assert str(poly) == "λ^3 - 5λ^2 - 3λ + 1"


def test_charpoly_identity_matrix():
    poly = char_poly(IntMatrix.identity(3))
    assert poly.coefficients == (-1, 3, -3, 1)  # (x-1)^3


def test_charpoly_refuses_an_inexact_trace_division(monkeypatch):
    # impossible for an integer matrix: a trace forced to 1 leaves step 2
    # dividing 1 by 2, which must raise rather than truncate
    monkeypatch.setattr(IntMatrix, "trace", lambda self: 1)
    with pytest.raises(ArithmeticError,
                       match="non-integral characteristic coefficient at step 2"):
        char_poly(IntMatrix.identity(2))


@pytest.mark.parametrize("m", range(1, 11))
def test_cayley_hamilton_exact(m):
    matrix = recurrence_matrix(m)
    identity = IntMatrix.identity(m)
    value = IntMatrix.zero(m)  # p(A) by Horner, leading coefficient first
    for c in reversed(char_poly(matrix).coefficients):
        value = value @ matrix + identity.scale(c)
    assert value == IntMatrix.zero(m)


def test_poly_square():
    assert poly_square((1, 1)) == [1, 2, 1]
    assert poly_square((-1, 0, 3)) == [1, 0, -6, 0, 9]
    assert poly_square((2, -5, 0, 7)) == [4, -20, 25, 28, -70, 0, 49]


def test_x_power_mod_matches_repeated_shift():
    rng = random.Random(7)
    for degree in range(1, 7):
        modulus = IntPolynomial([rng.randint(-9, 9) for _ in range(degree)] + [1])
        reference = [1] + [0] * (degree - 1)  # x^0, then times x each step
        for e in range(60):
            assert x_power_mod(e, modulus) == reference, (degree, e)
            top = reference[-1]
            reference = [0, *reference[:-1]]
            reference = [r - top * c for r, c in zip(reference, modulus.coefficients)]


def _remainder(a, modulus):
    """a mod a monic polynomial by long division, leading term first."""
    a, degree = list(a), len(modulus) - 1
    while len(a) > degree:
        top = a.pop()
        for j in range(degree):
            a[len(a) - degree + j] -= top * modulus[j]
    return a + [0] * (degree - len(a))


_inverse_cases = st.integers(1, 6).flatmap(lambda degree: st.tuples(
    st.lists(st.integers(-9, 9), min_size=degree, max_size=degree),
    st.lists(st.integers(-9, 9), min_size=1, max_size=2 * degree)))


@settings(max_examples=120, deadline=None)
@given(_inverse_cases)
def test_inverse_mod_scales_the_inverse(case):
    low, a = case
    modulus = IntPolynomial([*low, 1])
    degree = modulus.degree
    columns = [_remainder([0] * j + a, modulus.coefficients) for j in range(degree)]
    determinant = _cofactor_determinant([list(row) for row in zip(*columns)])
    scale, g = inverse_mod(a, modulus)
    assert abs(scale) == abs(determinant)
    if scale:
        assert len(g) == degree
        assert _remainder(schoolbook(g, a), modulus.coefficients) == [scale] + [0] * (degree - 1)
    else:
        assert g == []


def test_inverse_mod_fixed_cases():
    # x is its own inverse up to sign mod x^2 + 1, and its matrix needs a
    # row swap at the first pivot
    scale, g = inverse_mod([0, 1], IntPolynomial((1, 0, 1)))
    assert _remainder(schoolbook(g, [0, 1]), (1, 0, 1)) == [scale, 0] and abs(scale) == 1
    # (x + 1)^2 (x - 2) = x^3 - 3x - 2 shares the root -1 with its derivative
    assert inverse_mod([-3, 0, 3], IntPolynomial((-2, -3, 0, 1))) == (0, [])
    # degree 1: a(c) mod x - c, g = 1
    assert inverse_mod([5, 2], IntPolynomial((-3, 1))) == (11, [1])


def test_quadint_powers():
    # x^k = a + b x mod x^2 - 2x - 1 puts (1 + sqrt(2))^k at (a + b) + b sqrt(2)
    silver = IntPolynomial((-1, -2, 1))
    powers = {}
    for k in (0, 2, 3):
        a, b = x_power_mod(k, silver)
        powers[k] = (a + b, b)
    assert powers == {0: (1, 0), 2: (3, 2), 3: (7, 5)}


@pytest.mark.parametrize("m", range(2, 13))
def test_determinant_matches_charpoly_constant(m):
    matrix = recurrence_matrix(m)
    constant = char_poly(matrix)[0]
    # p(0) = det(-M) = (-1)^m det(M), two fully independent computations
    assert matrix.determinant() == (-1) ** m * constant


@pytest.mark.parametrize("m", range(2, 13))
def test_layer_matrix_determinant_sign_law(m):
    # row-difference reduction leaves stacked binomial rows whose reversal
    # is unitriangular; the reversal contributes C(m,2) inversions
    assert recurrence_matrix(m).determinant() == (-1) ** (m * (m - 1) // 2)


def _cofactor_determinant(rows):
    """Laplace expansion along the first row: the reference, no division."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * entry * _cofactor_determinant([row[:j] + row[j + 1:]
                                                         for row in rows[1:]])
               for j, entry in enumerate(rows[0]) if entry)


def test_determinant_matches_cofactor_expansion():
    # Pivots other than +-1 make the exact division by the previous pivot
    # matter; the first matrix needs a row swap at its first pivot.
    fixed = [
        [[0, 2, 1], [3, 1, 4], [5, 9, 2]],
        [[2, 1, 3, 4], [4, 5, 1, 2], [6, 2, 7, 1], [3, 8, 2, 5]],
        [[3, 0, 0, 0], [1, 5, 0, 0], [2, 7, -4, 0], [9, 1, 6, 2]],
    ]
    rng = random.Random(1978)
    drawn = [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
             for n in range(1, 7) for _ in range(20)]
    for rows in fixed + drawn:
        assert IntMatrix(rows).determinant() == _cofactor_determinant(rows), rows
    assert _cofactor_determinant(fixed[0]) == 50  # by hand: -2(6 - 20) + (27 - 5)


def _recurrence_terms(coefficients, seeds, count):
    """Extend the seeds by t(k+d) = -sum_j p_j t(k+j) to ``count`` terms."""
    terms = list(seeds)
    while len(terms) < count:
        terms.append(-sum(c * t for c, t in zip(coefficients, terms[-len(seeds):])))
    return terms


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda d: st.tuples(
    st.lists(st.integers(-10 ** 200, 10 ** 200), min_size=d, max_size=d),
    st.lists(st.integers(-50, 50), min_size=d, max_size=d))))
def test_sequence_annihilator_recovers_the_recurrence(drawn):
    coefficients, seeds = drawn
    d = len(seeds)
    terms = _recurrence_terms(coefficients, seeds, 2 * d)
    hankel = IntMatrix([terms[i:i + d] for i in range(d)])
    # A singular Hankel matrix leaves the degree-d annihilator not unique.
    # A nonsingular one whose determinant the first 61-bit prime divides
    # would also be refused, but hypothesis draws such seeds with
    # probability about 2^-61.
    assume(hankel.determinant() != 0)
    assert sequence_annihilator(terms) == IntPolynomial([*coefficients, 1])


def test_sequence_annihilator_needs_several_primes():
    # 200-digit coefficients cannot be read off one 61-bit prime
    coefficients = [10 ** 200 + 7, -(10 ** 199) - 3, 1]
    terms = _recurrence_terms(coefficients, [0, 0, 1], 6)
    assert sequence_annihilator(terms) == IntPolynomial([*coefficients, 1])


def test_prime_table_is_the_start_of_the_generated_primes():
    scanned = [q for q in range(2 ** 61 - 1, 2 ** 61 - 1000, -2) if _is_prime(q)]
    assert len(_FIRST_PRIMES) == 16 and len(scanned) > 18
    assert list(_FIRST_PRIMES) == scanned[:16]
    assert list(islice(_primes(), len(scanned))) == scanned


def test_sequence_annihilator_refuses_what_is_not_unique_or_integral():
    powers = [2 ** k for k in range(6)]
    refused = [powers,  # complexity 1 below d = 3
               [0, 0, 0, 0],  # complexity 0
               [0, 1],  # complexity 2 above d = 1
               [2, 1],  # x - 1/2 is not integral
               [1, 0, 3, 1]]  # nor x^2 - x/3 - 3
    for terms in refused:
        degree = len(terms) // 2
        with pytest.raises(ArithmeticError,
                           match=f"^Berlekamp-Massey did not certify p of degree {degree}$"):
            sequence_annihilator(terms)
    assert sequence_annihilator(powers[:2]) == IntPolynomial((-2, 1))
    with pytest.raises(ValueError, match="2d terms"):
        sequence_annihilator([1, 2, 3])
    with pytest.raises(ValueError, match="2d terms"):
        sequence_annihilator([])


def test_polynomial_must_be_monic():
    with pytest.raises(ValueError, match="monic"):
        IntPolynomial((1, 2))


def test_polynomial_rendering_small_cases():
    assert str(IntPolynomial((-1, 1))) == "λ - 1"
    assert str(IntPolynomial((-1, -2, 1))) == "λ^2 - 2λ - 1"
    assert str(IntPolynomial((0, 1, 1))) == "λ^2 + λ"


# -- rationals ---------------------------------------------------------------

def test_fraction_normalization_roundtrip():
    rng = random.Random(20240811)
    for _ in range(200):
        p = rng.randint(-10 ** 12, 10 ** 12)
        q = rng.randint(1, 10 ** 12)
        if p == 0:
            continue
        value = Fraction(p, q)
        assert value.denominator > 0
        assert value * Fraction(q, p) == 1
