"""Helpers the test modules share: ``spy`` and ``refuse`` pin which
routes of the engine a run takes, ``run_child`` runs a fresh interpreter
on this source tree, and ``schoolbook`` multiplies polynomials by the
definition."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
#: A child interpreter's environment: it finds this source tree even when
#: consets is not installed.
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def run_child(*argv: str) -> subprocess.CompletedProcess:
    """``python *argv`` in a child interpreter, its output captured as text."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=CHILD_ENV, timeout=120)


def recording(real, calls: list):
    """``real``, appending the arguments of each call to ``calls``."""
    def recorded(*args):
        calls.append(args)
        return real(*args)
    return recorded


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, name)``: the list of the argument tuples of each call of
    ``owner.name`` in this test, which still returns the real result."""
    def install(owner, name: str) -> list:
        calls = []
        monkeypatch.setattr(owner, name, recording(getattr(owner, name), calls))
        return calls
    return install


@pytest.fixture
def refuse(monkeypatch):
    """``refuse(owner, *names)``: a call of any ``owner.name`` fails this
    test, by an exception that the code under test does not catch."""
    def install(owner, *names: str) -> None:
        for name in names:
            monkeypatch.setattr(owner, name, lambda *args, _name=name, **kwargs:
                                pytest.fail(f"{_name} was called"))
    return install


def schoolbook(a, b) -> list:
    """The coefficients of the product of two coefficient lists, lowest first."""
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    return product
