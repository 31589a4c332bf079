"""Exact arithmetic substrate: monic integer polynomials, the
characteristic polynomial of a literal matrix, the certified annihilator
of an integer sequence, polynomial squares, powers of x modulo a monic
integer polynomial, and scaled inverses there.

The literal matrix class, ``recurrence.IntMatrix``, lives with the
coefficient checks that read it: the engine's jumps load this module and
never build a matrix.  ``char_poly`` imports the class when it runs.

Integer scalars are plain ``int`` (arbitrary precision), rationals are
``fractions.Fraction`` (always reduced, positive denominator).  Nothing in
this package ever rounds: every count, sum, average, and density is exact.
"""

from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from .recurrence import IntMatrix


class IntPolynomial:
    """Monic polynomial with integer coefficients, stored low degree first."""

    __slots__ = ("_coefficients",)

    def __init__(self, coefficients: Sequence[int]):
        coefficients = tuple(coefficients)
        if not coefficients or coefficients[-1] != 1:
            raise ValueError("polynomial must be monic")
        for c in coefficients:
            if not isinstance(c, int):
                raise TypeError("coefficients must be int")
        self._coefficients = coefficients

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coefficients

    @property
    def degree(self) -> int:
        return len(self._coefficients) - 1

    def __getitem__(self, power: int) -> int:
        return self._coefficients[power]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self._coefficients == other._coefficients

    def __hash__(self) -> int:
        return hash(self._coefficients)

    def __str__(self) -> str:
        terms = []
        for power in range(self.degree, -1, -1):
            c = self._coefficients[power]
            if c == 0:
                continue
            if power == self.degree:
                lead = ""
            else:
                lead = " - " if c < 0 else " + "
                c = abs(c)
            if power == 0:
                body = str(c)
            else:
                var = "λ" if power == 1 else f"λ^{power}"
                body = var if c == 1 else f"{c}{var}"
            terms.append(lead + body)
        return "".join(terms)

    def __repr__(self) -> str:
        return f"IntPolynomial({self._coefficients!r})"


def char_poly(matrix: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - M) by the Faddeev-LeVerrier scheme.

    Intermediate matrices stay integral; the per-step trace division is
    checked exact, so a non-integer coefficient (impossible for an integer
    matrix) would raise instead of silently corrupting the result.
    """
    from .recurrence import IntMatrix

    n = matrix.order
    identity = IntMatrix.identity(n)
    coefficients = [0] * (n + 1)
    coefficients[n] = 1
    aux = IntMatrix.zero(n)
    for k in range(1, n + 1):
        aux = matrix @ (aux + identity.scale(coefficients[n - k + 1]))
        c, rest = divmod(-aux.trace(), k)
        if rest:
            raise ArithmeticError(f"non-integral characteristic coefficient at step {k}")
        coefficients[n - k] = c
    return IntPolynomial(coefficients)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases 2..37, deterministic for odd
    n from 39 up to 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if any(n % a == 0 for a in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: The 16 largest primes below 2^61, largest first, so that a call to
#: ``sequence_annihilator`` that needs no more runs no primality test.
_FIRST_PRIMES = tuple(2 ** 61 - gap for gap in (1, 31, 45, 229, 259, 283, 339, 391,
                                                 403, 465, 531, 579, 675, 759, 799, 819))


def _primes() -> Iterator[int]:
    """The primes below 2^61, largest first: 2^61 - 1, 2^61 - 31, ...;
    the table first, then Miller-Rabin on the odd numbers below it."""
    yield from _FIRST_PRIMES
    candidate = _FIRST_PRIMES[-1] - 2
    while True:
        if _is_prime(candidate):
            yield candidate
        candidate -= 2


def _linear_complexity(terms: Sequence[int], q: int) -> tuple[int, list[int]]:
    """Berlekamp-Massey over Z/qZ, q prime: the length L of the shortest
    linear recurrence of the terms, and its connection polynomial
    C = 1 + c_1 x + ... + c_L x^L, so that sum_i c_i t(n-i) = 0 mod q for
    every n from L on (Massey, IEEE Trans. Inf. Theory 1969)."""
    connection, previous = [1], [1]
    length, shift, last = 0, 1, 1
    for n, term in enumerate(terms):
        discrepancy = (term + sum(c * t for c, t in zip(connection[1:],
                                                        reversed(terms[:n])))) % q
        if not discrepancy:
            shift += 1
            continue
        factor = discrepancy * pow(last, -1, q) % q
        update = connection[:]
        update += [0] * (len(previous) + shift - len(update))
        for i, b in enumerate(previous):
            update[i + shift] = (update[i + shift] - factor * b) % q
        if 2 * length <= n:
            previous, last, length, shift = connection, discrepancy, n + 1 - length, 1
        else:
            shift += 1
        connection = update
    return length, connection + [0] * (length + 1 - len(connection))


def sequence_annihilator(terms: Sequence[int]) -> IntPolynomial:
    """The monic degree-d polynomial p with sum_j p_j t(k+j) = 0 for every
    window of the 2d terms, certified unique, or else an ArithmeticError
    that names d.

    Berlekamp-Massey runs modulo 61-bit primes, generated downward from
    2^61 - 1, and the Chinese remainder theorem rebuilds the coefficients
    in symmetric range.  Primes are added until that reconstruction stops
    changing; the candidate is then certified over Z on every window, and
    more primes are added if that fails.  Linear complexity d at a prime
    makes the d x d Hankel matrix of the terms nonsingular (Massey's
    uniqueness theorem, N = 2L), so a certified candidate is the only
    monic degree-d annihilator over Q.  Any other complexity means no
    unique one exists, and the call raises; so does a sequence whose
    rational annihilator is not integral, once the primes multiply past
    the Hadamard bound on its Cramer numerators.
    """
    if not terms or len(terms) % 2:
        raise ValueError("need 2d terms, d >= 1")
    d = len(terms) // 2
    # |Cramer numerator| <= (sqrt(d) * 2^b)^d with every |t| < 2^b.
    bits = max(t.bit_length() for t in terms)
    bound = 1 << (d * (bits + d.bit_length()) + 1)
    residues, modulus, candidate = [0] * d, 1, None
    for q in _primes():
        length, connection = _linear_complexity([t % q for t in terms], q)
        if length != d:
            break
        inverse = pow(modulus, -1, q)
        residues = [r + modulus * ((connection[d - j] - r) * inverse % q)
                    for j, r in enumerate(residues)]
        modulus *= q
        previous = candidate
        candidate = [r - modulus if 2 * r > modulus else r for r in residues] + [1]
        if candidate != previous and modulus <= bound:
            continue
        if all(sum(p * t for p, t in zip(candidate, terms[k:k + d + 1])) == 0
               for k in range(d)):
            return IntPolynomial(candidate)
        if modulus > bound:
            break
    raise ArithmeticError(f"Berlekamp-Massey did not certify p of degree {d}")


def poly_square(a: Sequence[int]) -> list[int]:
    """The square of an integer polynomial, coefficients low degree first,
    with each cross product a_i a_j (i < j) taken once."""
    cross = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j in range(i + 1, len(a)):
                cross[i + j] += x * a[j]
    square = [2 * c for c in cross]
    for i, x in enumerate(a):
        square[2 * i] += x * x
    return square


def _reduce(a: list[int], modulus: Sequence[int]) -> list[int]:
    """a mod a monic polynomial, in place from the top down.  The modulus
    coefficients are small, so each step is small-by-big."""
    degree = len(modulus) - 1
    for top in range(len(a) - 1, degree - 1, -1):
        c = a[top]
        if c:
            base = top - degree
            for j in range(degree):
                a[base + j] -= c * modulus[j]
    del a[degree:]
    return a


def x_power_mod(e: int, modulus: IntPolynomial) -> list[int]:
    """Coefficients of x^e mod a monic integer polynomial, low degree first,
    padded to the modulus degree; binary powering, O(log e) squarings."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    coefficients = modulus.coefficients
    result = _reduce([1], coefficients)  # degree 0 modulus: everything is 0
    result += [0] * (modulus.degree - len(result))
    for bit in bin(e)[2:]:
        result = _reduce(poly_square(result), coefficients)
        if bit == "1":
            result = _reduce([0, *result], coefficients)
    return result


def _bareiss(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination of the first len(rows) columns,
    in place, on rows that may carry further columns: each row k then
    holds the k-th leading principal minor of the row-swapped matrix at
    column k, so the last pivot is its determinant.  Returns the sign of
    the swaps, or 0, leaving the rows half done, where a column has no
    pivot and the determinant is 0.  Below the pivots the entries are
    left stale; only those on and above them are read afterwards."""
    order = len(rows)
    sign, previous = 1, 1
    for k in range(order):
        swap = next((i for i in range(k, order) if rows[i][k]), None)
        if swap is None:
            return 0
        if swap != k:
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        top = rows[k]
        pivot = top[k]
        for row in rows[k + 1:]:
            factor = row[k]
            row[k + 1:] = [(pivot * x - factor * y) // previous
                           for x, y in zip(row[k + 1:], top[k + 1:])]
        previous = pivot
    return sign


def inverse_mod(a: Sequence[int], modulus: IntPolynomial) -> tuple[int, list[int]]:
    """R and g, g of degree under the modulus degree d, with g a = R mod a
    monic integer polynomial: R = 0 (and g empty) exactly where a is not
    invertible there, else R a^-1 = g, integral by Cramer's rule.

    The columns x^j a mod the modulus, j < d, make the matrix of
    multiplication by a on Z[x]/(modulus), whose determinant is
    +-Res(modulus, a).  ``_bareiss`` eliminates it, augmented by the
    constant 1, and leaves that determinant, up to the sign of its row
    swaps, as the last pivot R; back substitution then divides exactly.
    """
    coefficients = modulus.coefficients
    degree = modulus.degree
    column = _reduce(list(a), coefficients)
    column += [0] * (degree - len(column))
    columns = []
    for _ in range(degree):
        columns.append(column)
        column = _reduce([0, *column], coefficients)
    rows = [[*row, int(i == 0)] for i, row in enumerate(zip(*columns))]
    if not _bareiss(rows):
        return 0, []
    scale = rows[-1][degree - 1]
    g = [0] * degree
    for i in reversed(range(degree)):
        row = rows[i]
        g[i] = (scale * row[degree] - sum(map(mul, row[i + 1:degree], g[i + 1:]))) // row[i]
    return scale, g
