"""Exact arithmetic substrate: integer matrices, characteristic polynomials,
the certified annihilator of an integer sequence, polynomial squares, and
powers of x modulo a monic integer polynomial.

Integer scalars are plain ``int`` (arbitrary precision), rationals are
``fractions.Fraction`` (always reduced, positive denominator).  Nothing in
this package ever rounds: every count, sum, average, and density is exact.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class IntMatrix:
    """Immutable dense square matrix over Python integers.

    Indices are 0-based.  Only the operations the counting engines need are
    provided; this is deliberately not a general linear-algebra toolkit.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(entry for entry in row) for row in rows)
        if not rows:
            raise ValueError("matrix must have positive order")
        for row in rows:
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
            for entry in row:
                if not isinstance(entry, int):
                    raise TypeError(f"matrix entries must be int, got {type(entry).__name__}")
        self._rows = rows

    @classmethod
    def identity(cls, order: int) -> IntMatrix:
        return cls([[int(i == j) for j in range(order)] for i in range(order)])

    @classmethod
    def zero(cls, order: int) -> IntMatrix:
        return cls([[0] * order for _ in range(order)])

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> IntMatrix:
        return cls([[entries[i] if i == j else 0 for j in range(len(entries))]
                    for i in range(len(entries))])

    @classmethod
    def unit(cls, order: int, row: int, col: int) -> IntMatrix:
        """Matrix with a single 1 at (row, col), zeros elsewhere."""
        return cls([[int(i == row and j == col) for j in range(order)]
                    for i in range(order)])

    @property
    def order(self) -> int:
        return len(self._rows)

    def _check_order(self, other: IntMatrix) -> None:
        if self.order != other.order:
            raise ValueError(f"matrix orders differ: {self.order} vs {other.order}")

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        self._check_order(other)
        cols = tuple(zip(*other._rows))
        return IntMatrix([[sum(a * b for a, b in zip(row, col)) for col in cols]
                          for row in self._rows])

    def __add__(self, other: IntMatrix) -> IntMatrix:
        self._check_order(other)
        return IntMatrix([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self._rows, other._rows)])

    def scale(self, c: int) -> IntMatrix:
        return IntMatrix([[c * entry for entry in row] for row in self._rows])

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product M @ v."""
        if len(vector) != self.order:
            raise ValueError(f"vector length {len(vector)} does not match order {self.order}")
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self._rows)

    def trace(self) -> int:
        return sum(row[i] for i, row in enumerate(self._rows))

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        n = self.order
        a = [list(row) for row in self._rows]
        sign = 1
        prev = 1
        for r in range(n - 1):
            if a[r][r] == 0:
                for i in range(r + 1, n):
                    if a[i][r] != 0:
                        a[r], a[i] = a[i], a[r]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(r + 1, n):
                for j in range(r + 1, n):
                    a[i][j] = (a[i][j] * a[r][r] - a[i][r] * a[r][j]) // prev
                a[i][r] = 0
            prev = a[r][r]
        return sign * a[n - 1][n - 1]

    @property
    def is_symmetric(self) -> bool:
        return all(self._rows[i][j] == self._rows[j][i]
                   for i in range(self.order) for j in range(i + 1, self.order))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self._rows)
        return f"IntMatrix[{body}]"


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


def sequence_annihilator(terms: Sequence[int]) -> IntPolynomial | None:
    """The monic degree-d polynomial p with sum_j p_j t(k+j) = 0 for every
    window of the 2d terms, or None where it is not certified unique.

    Berlekamp-Massey runs modulo 61-bit primes, generated downward from
    2^61 - 1, and the Chinese remainder theorem rebuilds the coefficients
    in symmetric range.  Primes are added until that reconstruction stops
    changing; the candidate is then certified over Z on every window, and
    more primes are added if that fails.  Linear complexity d at a prime
    makes the d x d Hankel matrix of the terms nonsingular (Massey's
    uniqueness theorem, N = 2L), so a certified candidate is the only
    monic degree-d annihilator over Q.  Any other complexity means no
    unique one exists, and the answer is None; so is a sequence whose
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
            return None
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
            return None


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
