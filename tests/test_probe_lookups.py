"""The benchmark probe still finds every consets name it looks up.

Claims covered:
    - perfbench/probe.py emits each per-layer metric BENCHMARK.json
      declares for the op kinds it probes, on one tiny op of each kind
    - every suite in the probe's battery resolves to a verify.<suite>_checks
      (checked without running the battery)

The probe leaves a metric out when a name it looks up is gone, so a
refactor that renames one would otherwise go unnoticed.  Nothing under
perfbench/ is changed here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import run_child
from consets import verify

ROOT = Path(__file__).resolve().parents[1]
PROBE = ROOT / "perfbench" / "probe.py"

RENDERED = {"cli.render_s", "cli.render_failed", "cli.out_bytes"}
TABLES = {"layers.profile_table_s", "orders.order_table_s",
          "aggregate.evaluate_s", "aggregate.n_digits", *RENDERED}
CENSUS = {"oracle.census_s", "oracle.subsets"}
#: Per-layer metrics bench.py derives from the probe's instead of reading them.
DERIVED = {"oracle.subsets_per_s", "trace.wall_ratio"}


def _load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _probe(op: dict, *flags: str) -> set[str]:
    completed = run_child(str(PROBE), json.dumps(op), *flags)
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout.splitlines()[-1])["metrics"])


def _square(tmp_path: Path) -> str:
    path = tmp_path / "square.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    return str(path)


#: One tiny op of each kind the probe handles, with its flags, and the
#: per-layer metrics it must emit besides cli.import_s.
OPS = [
    ("cell", 3, 5, (), TABLES),
    ("cell", 3, 5, ("--memory",), {"layers.peak_mb", "orders.peak_mb"}),
    ("table", 3, 5, (), TABLES),
    ("ladder", 2, 10, (), {"ladder.rows_s", *RENDERED}),
    ("census", 2, 3, (), CENSUS),
    ("graph", 0, 0, (), CENSUS),
    ("charpoly", 3, 0, (), {"exactmath.char_poly_s", "recurrence.validate_coefficients_s"}),
]


@pytest.mark.parametrize("kind, m, n, flags, expected", OPS)
def test_probe_emits_its_metrics(tmp_path, kind, m, n, flags, expected):
    op = {"kind": kind, "m": m, "n": n, "path": _square(tmp_path) if kind == "graph" else ""}
    assert _probe(op, *flags) >= {"cli.import_s", *expected}


def test_probe_covers_every_declared_metric():
    # Every declared per-layer metric is one an op above must emit, one the
    # battery emits, or one bench.py derives.
    battery = {f"verify.{suite}_s" for suite, _ in _load_probe().BATTERY}
    emitted = set().union(*(expected for *_, expected in OPS))
    declared = {metric["name"] for metric in
                json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    assert declared <= {"cli.import_s", "verify.checks", "verify.failed",
                        *emitted, *battery, *DERIVED}


def test_battery_suites_resolve():
    for suite, _ in _load_probe().BATTERY:
        assert callable(getattr(verify, f"{suite}_checks", None)), suite
