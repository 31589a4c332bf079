"""Coefficient identities of the layer matrix's characteristic polynomial.

With p(x) = x^m + c_m x^(m-1) + ... + c_1 the characteristic polynomial
of the layer matrix, ``validate_coefficients`` checks two claimed closed
forms for its coefficients against independent matrix-side quantities:
the top coefficient (through the trace, against Fibonacci numbers) holds
for every m, while the unit-constant-term claim is true only for
m = 0, 3 (mod 4) and is reported honestly where it fails.  p comes from
``layers.layer_polynomial``, which ``charpoly`` prints, by the step
(``layers.totals_polynomial``) from which the engine's jumps take p,
the modulus of one and the root of the other's ``aggregate.annihilator``:
Berlekamp-Massey on the streamed totals,
certified exactly.  The trace and determinant are
read off the literal matrix; ``verify.charpoly_checks`` compares p with
Faddeev-LeVerrier (``exactmath.char_poly``), and ``verify.stream_checks``
checks that the latter annihilates the per-horizon totals.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactmath import IntPolynomial
from .layers import layer_polynomial, recurrence_matrix
from .records import Check


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
