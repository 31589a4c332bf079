"""Coefficient identities of the layer matrix's characteristic polynomial.

With p(x) = x^m + c_m x^(m-1) + ... + c_1 the characteristic polynomial
of the layer matrix, ``validate_coefficients`` checks two claimed closed
forms for its coefficients against independent matrix-side quantities:
the top coefficient (through the trace, against Fibonacci numbers) holds
for every m, while the unit-constant-term claim is true only for
m = 0, 3 (mod 4) and is reported honestly where it fails.  p comes from
``layers.layer_polynomial``, which ``charpoly`` prints, by p's one
route, which the engine's jumps call too
(``exactmath.sequence_annihilator``): Berlekamp-Massey on the streamed
totals, certified exactly or refused by an ArithmeticError that names
the degree.  The trace and determinant are read off the literal
matrix; ``verify.charpoly_checks`` compares p with
Faddeev-LeVerrier (``exactmath.char_poly``), and ``verify.stream_checks``
checks that the latter annihilates the per-horizon totals.

``IntMatrix``, the literal matrix class, lives here: ``charpoly`` and
``verify`` are the commands that build a literal matrix, and both load
this module.  ``layers.recurrence_matrix``, ``layers.weighted_powers`` and
``exactmath.char_poly`` import it when they run, so the engine's stream
and jumps never compile it.  Its determinant shares the fraction-free
elimination of ``exactmath.inverse_mod``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .exactmath import IntPolynomial, _bareiss
from .layers import layer_polynomial, recurrence_matrix
from .records import Check


class IntMatrix:
    """Immutable dense square matrix over Python integers.

    Indices are 0-based.  Only the operations the reference routes need are
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
        rows = [list(row) for row in self._rows]
        return _bareiss(rows) * rows[-1][-1]

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


def fibonacci(n: int) -> int:
    """F(0)=0, F(1)=1, F(n)=F(n-1)+F(n-2), by integer iteration."""
    if n < 0:
        raise ValueError("index must be non-negative")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class CoefficientReport(NamedTuple):
    """Outcome of checking the characteristic coefficients of one layer size."""

    m: int
    polynomial: IntPolynomial
    checks: tuple[Check, ...]


def validate_coefficients(m: int) -> CoefficientReport:
    """Check the claimed closed forms for the top and constant coefficients.

    With p(x) = x^m + c_m x^(m-1) + ... + c_1 for the layer matrix, the
    claims are c_m = F(m+1) - 2^m for every m >= 2, and c_1 = 1 for
    m >= 3 (c_1 = -1 at m = 2).  The top-coefficient claim always holds;
    the constant-term claim fails for m = 1, 2 (mod 4), where the
    determinant's sign flips (det = (-1)^(m(m-1)/2)), and the report
    carries those failures.  The matrix-side equivalents (trace, signed
    determinant) are computed independently of the polynomial.
    """
    if m < 2:
        raise ValueError("coefficient identities need layer size at least 2")
    matrix = recurrence_matrix(m)
    polynomial = layer_polynomial(m)
    where = f"m={m}"
    top = polynomial[m - 1]
    constant = polynomial[0]
    expected_top = fibonacci(m + 1) - 2 ** m
    expected_constant = 1 if m >= 3 else -1
    trace = matrix.trace()
    determinant = matrix.determinant()
    expected_trace = -expected_top
    expected_determinant = (-1) ** m * constant
    checks = (
        Check("charpoly top coefficient", where, top == expected_top,
              f"got {top}, expected {expected_top}"),
        Check("charpoly constant term", where, constant == expected_constant,
              f"got {constant}, expected {expected_constant}"),
        Check("matrix trace identity", where, trace == expected_trace,
              f"trace {trace}, expected {expected_trace}"),
        Check("determinant sign identity", where, determinant == expected_determinant,
              f"det {determinant}, expected {expected_determinant}"),
    )
    return CoefficientReport(m=m, polynomial=polynomial, checks=checks)
