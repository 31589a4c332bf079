"""Acceptance battery: one test per criterion, one printed line each.

All comparisons are exact (tolerance zero); the stated runtime budgets
are asserted as well.  Criteria 1, 2, 4-8, 10 and 11 run the matching
``consets.verify`` suite at its defaults, the sizes ``verify.full_suite``
runs it at, so the battery has one source of truth; the sizes that a
criterion's line prints are that suite's defaults too.  Criterion 10 holds
the recurrence jump that ``evaluate`` takes above its 4m+4 Hankel terms
against one stream walk per m.  Criterion 11 holds the additions-only
layer step against the literal matrix.  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.

Criterion 3 is known red: it asserts a unit constant term for the
characteristic polynomial at every m in 3..10, but that claimed identity
is false for m = 5, 6, 9, 10 (the determinant of the layer matrix is
(-1)^(m(m-1)/2), so the constant term's sign cycles with period 4; see
test_exactmath.test_layer_matrix_determinant_sign_law for the verified
law).  The criterion is implemented as stated and left to fail rather
than weakened.
"""

import json
import time
from fractions import Fraction

from conftest import run_child
from consets import recurrence, verify
from consets.exactmath import char_poly
from consets.layers import recurrence_matrix


def _criterion(number: int, description: str, ok: bool, elapsed: float,
               detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} {description}: {status} ({elapsed:.2f}s)"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)


def _suite(number: int, description: str, suite) -> tuple[list[str], float]:
    """Run one verify suite at its defaults, print the criterion line,
    return its failures.  The description's ``{}`` fields take the
    suite's defaults in order, so the line prints the sizes that ran."""
    start = time.perf_counter()
    checks = suite()
    elapsed = time.perf_counter() - start
    assert checks, "suite ran no checks"
    failures = [check.line() for check in checks if not check.ok]
    _criterion(number, description.format(*suite.__defaults__ or ()), not failures, elapsed,
               "; ".join(failures))
    return failures, elapsed


def test_criterion_1_census_equivalence():
    failures, elapsed = _suite(1, "census equivalence on the desk-scale grid",
                               verify.oracle_grid_checks)
    assert not failures
    assert elapsed < 60


def test_criterion_2_ladder_closed_forms():
    failures, elapsed = _suite(2, "ladder closed forms for n=1..{}", verify.ladder_checks)
    assert not failures
    assert elapsed < 5


def test_criterion_3_characteristic_coefficient_identities():
    start = time.perf_counter()
    mismatches = []
    poly2 = char_poly(recurrence_matrix(2))
    if (poly2[1], poly2[0]) != (-2, -1):
        mismatches.append(f"m=2 coefficients {(poly2[1], poly2[0])}")
    for m in range(3, 11):
        poly = char_poly(recurrence_matrix(m))
        expected_top = recurrence.fibonacci(m + 1) - 2 ** m
        if poly[m - 1] != expected_top:
            mismatches.append(f"m={m}: top {poly[m - 1]} != {expected_top}")
        if poly[0] != 1:
            mismatches.append(f"m={m}: constant {poly[0]} != 1")
    elapsed = time.perf_counter() - start
    _criterion(3, "characteristic-coefficient closed forms for m=2..10",
               not mismatches, elapsed,
               "; ".join(mismatches) + " (claimed unit constant term is false "
               "for m = 1, 2 mod 4; determinant sign cycles with period 4)")
    assert elapsed < 1
    assert not mismatches, mismatches


def test_criterion_4_recurrence_matches_matrix_path():
    failures, elapsed = _suite(4, "scalar recurrence equals matrix path for m=2..{}, k=1..{}",
                               verify.stream_checks)
    assert not failures
    assert elapsed < 5


def test_criterion_5_weighted_symmetry():
    failures, elapsed = _suite(5, "weighted power symmetry and column sums for m=2..{}, k=1..{}",
                               verify.symmetry_checks)
    assert not failures
    assert elapsed < 5


def test_criterion_6_order_sum_three_paths():
    failures, elapsed = _suite(6, "order-sum three-path agreement for m=2..{}, k=1..{}",
                               verify.order_path_checks)
    assert not failures
    assert elapsed < 10


def test_criterion_7_analytic_anchors():
    failures, elapsed = _suite(7, "analytic anchor averages", verify.anchor_checks)
    assert not failures
    assert elapsed < 1


def test_criterion_8_summation_identities():
    failures, elapsed = _suite(8, "prefix-sum identities for n=1..{}",
                               verify.ladder_identity_checks)
    assert not failures
    assert elapsed < 2


def test_criterion_9_performance_floor():
    m, n = 6, 1000
    start = time.perf_counter()
    completed = run_child("-m", "consets.cli", "compute", "--m", str(m), "--n", str(n),
                          "--format", "json")
    elapsed = time.perf_counter() - start
    record = json.loads(completed.stdout) if completed.returncode == 0 else {}
    exact = (completed.returncode == 0
             and Fraction(record["A_exact"])
             == Fraction(int(record["S"]), int(record["N"]))
             and Fraction(record["D_exact"])
             == Fraction(record["A_exact"]) / (m * n))
    _criterion(9, f"compute m={m} n={n} under ten seconds with exact output",
               exact and elapsed < 10, elapsed,
               completed.stderr.strip() or "output not exact")
    assert exact
    assert elapsed < 10


def test_criterion_10_recurrence_jump_matches_stream():
    failures, elapsed = _suite(10, "recurrence jump equals stream for m=1..{}, n<={}",
                               verify.jump_checks)
    assert not failures
    assert elapsed < 2


def test_criterion_11_layer_step_matches_literal_matrix():
    failures, elapsed = _suite(11, "factored layer step equals literal matrix for m=1..{}",
                               verify.layer_step_checks)
    assert not failures
    assert elapsed < 2
