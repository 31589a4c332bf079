"""Exact arithmetic substrate: integer matrices, characteristic polynomials,
and powers of x modulo a monic integer polynomial.

Integer scalars are plain ``int`` (arbitrary precision), rationals are
``fractions.Fraction`` (always reduced, positive denominator).  Nothing in
this package ever rounds: every count, sum, average, and density is exact.
"""

from __future__ import annotations

from typing import Iterable, Sequence


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


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer polynomials, coefficients low degree first."""
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                product[i + j] += x * y
    return product


def _square(a: Sequence[int]) -> list[int]:
    """poly_mul(a, a) with each cross product a_i a_j (i < j) taken once."""
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
        result = _reduce(_square(result), coefficients)
        if bit == "1":
            result = _reduce([0, *result], coefficients)
    return result
