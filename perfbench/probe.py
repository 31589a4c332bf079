"""Per-layer probe: runs one op's work through the public consets calls the
CLI makes, in a fresh process, and prints the layer metrics as one JSON line.

    PYTHONPATH=src python3 perfbench/probe.py '<op json>' [--memory]

Without ``--memory`` each call is timed with ``perf_counter``.  With it, no
call is timed; ``tracemalloc`` records how much the count and order tables
add at their peak.  A public call that no longer exists leaves its metric
out instead of failing the probe, so the probe outlives refactors.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc

PRECISION = 12
#: The suites of verify.full_suite with the arguments it passes them.
BATTERY = (("oracle_grid", ()), ("ladder", (200,)), ("ladder_identity", (100,)),
           ("charpoly", (10,)), ("stream", (6, 200)), ("symmetry", (6, 12)),
           ("order_path", (5, 10)), ("anchor", ()))

metrics: dict[str, float] = {}


def public(module: str, name: str):
    """consets.<module>.<name>, or None when it no longer exists."""
    try:
        return getattr(importlib.import_module(f"consets.{module}"), name)
    except (ImportError, AttributeError):
        return None


def timed(metric: str, module: str, name: str, *args):
    """Call a public function, adding its wall time to ``metric``."""
    function = public(module, name)
    if function is None:
        return None
    start = time.perf_counter()
    result = function(*args)
    metrics[metric] = metrics.get(metric, 0.0) + time.perf_counter() - start
    return result


def add(metric: str, value: float) -> None:
    metrics[metric] = metrics.get(metric, 0) + value


def digits(value: int) -> int:
    """Decimal digits without int->str, which the CLI's guard limits."""
    guess = max(1, value.bit_length() * 30103 // 100000)
    return guess + (value >= 10 ** guess)


def render(records, fmt: str, single: bool) -> None:
    """The CLI's rendering of result records, timed; a render the int->str
    guard refuses counts in cli.render_failed."""
    record_type = public("cli", "OutputRecord")
    header = public("cli", "CSV_HEADER")
    if record_type is None or header is None:
        return
    add("cli.render_failed", 0)
    start = time.perf_counter()
    try:
        rows = [record_type.from_result(r) if not isinstance(r, record_type) else r
                for r in records]
        if fmt == "csv":
            text = "\n".join([header, *(row.csv_row(PRECISION) for row in rows)])
        else:
            payload = rows[0].json_object(PRECISION) if single else [
                row.json_object(PRECISION) for row in rows]
            text = json.dumps(payload, indent=2)
    except ValueError:
        add("cli.render_failed", 1)
        text = ""
    add("cli.render_s", time.perf_counter() - start)
    add("cli.out_bytes", len(text.encode()))


def tables(m: int, n: int, memory: bool) -> None:
    """Cold count and order tables, timed or traced."""
    if not memory:
        timed("layers.profile_table_s", "layers", "profile_table", m, n)
        timed("orders.order_table_s", "orders", "order_table", m, n)
        return
    for metric, module, name in (("layers.peak_mb", "layers", "profile_table"),
                                 ("orders.peak_mb", "orders", "order_table")):
        function = public(module, name)
        if function is None:
            continue
        tracemalloc.start()
        function(m, n)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        metrics[metric] = max(metrics.get(metric, 0.0), peak / 2 ** 20)


def probe(op: dict, memory: bool) -> None:
    kind, m, n = op["kind"], op.get("m", 0), op.get("n", 0)
    if kind in ("cell", "table"):
        tables(m, n, memory)
        if memory:
            return
        cells = [n] if kind == "cell" else range(1, n + 1)
        results = [timed("aggregate.evaluate_s", "aggregate", "evaluate", m, k) for k in cells]
        if None in results:
            return
        add("aggregate.n_digits", sum(digits(r.count) for r in results))
        render(results, "json" if kind == "cell" else "csv", single=kind == "cell")
    elif kind == "ladder":
        record_type = public("cli", "OutputRecord")
        if record_type is not None:
            start = time.perf_counter()
            records = [record_type.from_ladder(k) for k in range(1, n + 1)]
            add("ladder.rows_s", time.perf_counter() - start)
            render(records, "csv", single=False)
    elif kind in ("census", "graph"):
        if kind == "census":
            build = public("oracle", "complete_path_product")
            graphs = [(build(m, n).graph, "flood")] if build is not None else []
        else:
            parse = public("oracle", "parse_edge_list")
            with open(op["path"], encoding="utf-8") as handle:
                graph = parse(handle.read()) if parse is not None else None
            graphs = [(graph, "flood"), (graph, "union-find")] if graph is not None else []
        for graph, connectivity in graphs:
            if timed("oracle.census_s", "oracle", "census", graph, None, connectivity) is not None:
                add("oracle.subsets", 2 ** graph.vertex_count - 1)
    elif kind == "charpoly":
        matrix = public("layers", "recurrence_matrix")
        if matrix is not None:
            timed("exactmath.char_poly_s", "exactmath", "char_poly", matrix(m))
        timed("recurrence.validate_coefficients_s", "recurrence", "validate_coefficients", m)
    elif kind == "battery":
        for suite, args in BATTERY:
            checks = timed(f"verify.{suite}_s", "verify", f"{suite}_checks", *args)
            if checks is not None:
                add("verify.checks", len(checks))
                add("verify.failed", sum(not check.ok for check in checks))
    else:
        raise ValueError(f"no probe for op kind {kind!r}")


def main() -> int:
    op = json.loads(sys.argv[1])
    memory = "--memory" in sys.argv[2:]
    start = time.perf_counter()
    importlib.import_module("consets.cli")
    metrics["cli.import_s"] = time.perf_counter() - start
    probe(op, memory)
    print(json.dumps({"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
