"""Each command loads only what it runs; the package loads only the engine.

Claims covered:
    - compute, table and ladder (--n and --n-max), run in a fresh
      interpreter in every format, never import the census, the
      verification suites, the scalar recurrence, the order reference
      routes, the ladder closed forms, ``dataclasses``, ``inspect`` or
      ``json``: the CLI writes its JSON text itself (beyond what a bare
      interpreter already holds, so a site hook that loads one of them
      does not count); the harness that runs them imports no ``json``
    - verify --m --n and verify --graph import the census but neither the
      verification suites nor the ladder closed forms, the order
      reference routes, the scalar recurrence or ``json``
    - charpoly imports the coefficient checks but not the census, its
      checks, the suites, the ladder closed forms, the order routes or
      ``json``
    - table, ladder --n-max and compute up to n = 4m+4, the last cell the
      engine streams, never import the jump's polynomial arithmetic
      (``exactmath``); compute at n = 4m+5, the first jumped cell, does,
      and among the package's modules loads exactly the engine and
      ``exactmath``, by either jump
    - ``exactmath.char_poly`` of ``layers.recurrence_matrix(5)``, the
      lookups the benchmark probe makes, gives m = 5's polynomial in a
      fresh interpreter, though the matrix class lives in ``recurrence``
    - ``import consets`` loads exactly ``aggregate``, ``layers`` and
      ``records``, and none of those above, ``exactmath`` included;
      ``from consets import evaluate`` loads the same
    - every name in ``consets.__all__`` resolves to the object its module
      defines; ``from consets import *`` binds exactly those names;
      ``dir(consets)`` lists them; an unknown name raises an
      ``AttributeError`` that names it
    - the result records (``ProductResult``, ``cli.OutputRecord``,
      ``CensusReport``) are values: equal and hashed by their fields,
      immutable, with a dataclass-style repr, and they pickle and copy
"""

import ast
import copy
import pickle
import sys

import pytest

import consets
from conftest import run_child
from consets import ProductResult
from consets.cli import OutputRecord
from consets.oracle import CensusReport


#: Modules that no rendering command needs.
GUARDED = {"consets.oracle", "consets.verify", "consets.recurrence", "consets.orders",
           "consets.ladder", "dataclasses", "inspect", "json"}

#: Runs ``consets.cli`` as ``python -m`` does, with the child's own
#: arguments as its argv, and prints its exit code and every module loaded
#: by then as a Python literal; the harness imports only ``os``, ``runpy``
#: and ``sys``, so it loads nothing the commands are held to avoid.
RUN_CLI = """
import os, runpy, sys
sys.argv = ["consets", *sys.argv[1:]]
sys.stdout = open(os.devnull, "w")
try:
    runpy.run_module("consets.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as stop:
    code = stop.code
sys.stdout = sys.__stdout__
print(repr({"code": code, "modules": sorted(sys.modules)}))
"""

REPORT = "import sys; print(repr({'code': 0, 'modules': sorted(sys.modules)}))"


def _loaded(code: str, *argv: str) -> set[str]:
    completed = run_child("-c", code, *argv)
    assert completed.returncode == 0, completed.stderr
    report = ast.literal_eval(completed.stdout.splitlines()[-1])
    assert report["code"] == 0, completed.stderr
    return set(report["modules"])


@pytest.fixture(scope="module")
def bare() -> set[str]:
    """The modules a bare interpreter already holds."""
    return _loaded(REPORT)


@pytest.mark.parametrize("argv", [
    ["compute", "--m", "3", "--n", "40", "--format", "json"],  # the jump
    ["compute", "--m", "3", "--n", "5", "--format", "json"],  # the stream
    ["table", "--m", "3", "--n-max", "12", "--format", "csv"],
    ["ladder", "--n-max", "12", "--format", "csv"],
    *(["compute", "--m", "3", "--n", n, "--format", fmt]
      for n in ("40", "5") for fmt in ("plain", "csv")),
    *(["table", "--m", "3", "--n-max", "12", "--format", fmt] for fmt in ("plain", "json")),
    *(["ladder", "--n-max", "12", "--format", fmt] for fmt in ("plain", "json")),
    *(["ladder", "--n", "13", "--format", fmt] for fmt in ("plain", "csv", "json")),
])
def test_rendering_commands_load_no_verification_module(bare, argv):
    loaded = _loaded(RUN_CLI, *argv)
    assert "consets.aggregate" in loaded  # the command ran
    assert (GUARDED & loaded) - bare == set()


#: Modules that a census-only verify does not need.
SUITES = {"consets.verify", "consets.ladder", "consets.orders", "consets.recurrence"}


@pytest.mark.parametrize("scope", ["cell", "graph"])
def test_census_verify_loads_no_suite(bare, tmp_path, scope):
    path = tmp_path / "square.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    argv = ["verify", "--m", "2", "--n", "3"] if scope == "cell" else ["verify", "--graph", str(path)]
    loaded = _loaded(RUN_CLI, *argv)
    assert "consets.oracle" in loaded  # the census and its checks ran
    assert ({*SUITES, "json"} & loaded) - bare == set()


def test_charpoly_loads_no_census(bare):
    # m = 4: the claims it checks hold there, so it exits 0
    loaded = _loaded(RUN_CLI, "charpoly", "--m", "4")
    assert "consets.recurrence" in loaded  # the checks ran
    unwanted = {"consets.oracle", "json", *SUITES} - {"consets.recurrence"}
    assert (unwanted & loaded) - bare == set()


@pytest.mark.parametrize("argv", [
    ["compute", "--m", "3", "--n", "16"],  # n = 4m+4, the last streamed cell
    ["ladder", "--n", "12", "--format", "csv"],  # m = 2, n = 4m+4
    ["table", "--m", "3", "--n-max", "40", "--format", "csv"],
    ["ladder", "--n-max", "40", "--format", "json"],
])
def test_streaming_commands_load_no_jump_arithmetic(argv):
    loaded = _loaded(RUN_CLI, *argv)
    assert "consets.aggregate" in loaded  # the command ran
    assert "consets.exactmath" not in loaded


#: The engine's stream and what it imports: all that ``import consets``
#: loads; the jump's ``exactmath`` waits for the first jumped cell.
ENGINE = {"consets.aggregate", "consets.layers", "consets.records"}


@pytest.mark.parametrize("argv", [["compute", "--m", "3", "--n", "17"],  # n = 4m+5
                                  ["ladder", "--n", "13"],
                                  # the jump modulo Q: m = 1 and above P_JUMP_MAX_M
                                  ["compute", "--m", "1", "--n", "9", "--format", "json"],
                                  ["compute", "--m", "13", "--n", "57", "--format", "json"]])
def test_a_jumped_compute_loads_the_jump_arithmetic(argv):
    loaded = _loaded(RUN_CLI, *argv)
    assert {name for name in loaded if name.startswith("consets.")} == \
        ENGINE | {"consets.exactmath"}


def test_char_poly_of_the_literal_matrix_in_a_fresh_interpreter():
    # the benchmark probe looks up exactmath.char_poly and
    # layers.recurrence_matrix; neither module imports recurrence, the
    # matrix class's home, at its top
    code = ("from consets.exactmath import char_poly\n"
            "from consets.layers import recurrence_matrix\n"
            "print(repr(char_poly(recurrence_matrix(5)).coefficients))")
    completed = run_child("-c", code)
    assert completed.returncode == 0, completed.stderr
    assert ast.literal_eval(completed.stdout) == (-1, 8, 39, -53, -24, 1)


def test_importing_the_package_loads_only_the_engine(bare):
    for statement in ("import consets", "from consets import evaluate"):
        loaded = _loaded(statement + "\n" + REPORT)
        assert {name for name in loaded if name.startswith("consets.")} == ENGINE, statement
        assert (GUARDED & loaded) - bare == set(), statement


def test_every_public_name_resolves_to_its_definition():
    for name in consets.__all__:
        value = getattr(consets, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert value.__module__.startswith("consets."), name


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from consets import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(consets.__all__)


def test_dir_lists_the_public_names():
    assert set(consets.__all__) <= set(dir(consets))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        consets.no_such_name
    assert not hasattr(consets, "verify_everything")


#: (record, an equal record built apart, a record that differs, its repr prefix)
RECORDS = [
    (lambda: ProductResult(3, 2, 51, 162), lambda: ProductResult(2, 3, 47, 152),
     "ProductResult(m=3, n=2, count=51, total=162, average=Fraction(54, 17))"),
    (lambda: OutputRecord(ProductResult(3, 2, 51, 162)),
     lambda: OutputRecord(ProductResult(2, 3, 47, 152)),
     "OutputRecord(result=ProductResult(m=3, n=2, "),
    (lambda: CensusReport((4, 4, 4, 1)), lambda: CensusReport((4, 4, 4, 0)),
     "CensusReport(size_counts=(4, 4, 4, 1))"),
]


@pytest.mark.parametrize("make, make_other, shown", RECORDS,
                         ids=["ProductResult", "OutputRecord", "CensusReport"])
def test_records_are_immutable_values(make, make_other, shown):
    record, twin, other = make(), make(), make_other()
    assert record == twin and hash(record) == hash(twin)
    fields = tuple(getattr(record, name) for name in type(record).__slots__)
    assert record != other and record != fields
    assert len({record, twin, other}) == 2
    assert repr(record).startswith(shown)
    for name in type(record).__slots__:
        with pytest.raises(AttributeError, match=name):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == make()  # nothing above changed it
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record == copy.deepcopy(record)
