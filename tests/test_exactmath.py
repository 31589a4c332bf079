"""Exact arithmetic substrate: matrices, characteristic polynomials, x^e mod p.

Claims covered:
    - matrix product, apply, symmetry, trace behave exactly
    - Faddeev-LeVerrier characteristic polynomials match hand values, and
      an inexact trace division raises
    - every layer matrix annihilates its own characteristic polynomial
    - Bareiss determinant agrees with the charpoly constant term
    - polynomial products and x^e mod a monic polynomial are exact
    - Fraction construction always lands on the reduced canonical form
"""

import random
from fractions import Fraction

import pytest

from consets.exactmath import IntMatrix, IntPolynomial, char_poly, poly_mul, x_power_mod
from consets.layers import recurrence_matrix


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


def test_poly_mul():
    assert poly_mul((1, 1), (1, 1)) == [1, 2, 1]
    assert poly_mul((-1, 0, 3), (2, 5)) == [-2, -5, 6, 15]


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
