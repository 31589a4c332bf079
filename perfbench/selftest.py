"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout; it takes about half a minute.  It
checks that:

* the same seed gives an identical op list, and another seed changes it;
* the checkers pass real CLI outputs and reject tampered ones;
* a trivial child's measured peak memory does not rise after a child that
  printed a large output;
* a smoke run of every workload, untraced and traced, passes all checks and
  reports exactly the metrics BENCHMARK.json names.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

from run import start_launcher

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
failures: list[str] = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(name)


def test_seeded_op_lists() -> None:
    from workloads import WORKLOADS, build_ops
    for workload in WORKLOADS:
        same = build_ops(workload, 5) == build_ops(workload, 5)
        expect(f"{workload}: same seed, same op list", same)
        expect(f"{workload}: other seed, other op list", build_ops(workload, 5) != build_ops(workload, 6))


def test_peak_memory_is_per_child(runner) -> None:
    from workloads import SETUP, Op
    before = runner.cli(SETUP).rss_mb
    large = runner.cli(Op("ladder", 2, 4000))
    expect("large-output child printed a large output", runner.stdout.stat().st_size > 15e6)
    after = runner.cli(SETUP).rss_mb
    expect("trivial peak does not rise after a large output",
           after <= before * 1.02 and large.rss_mb > before,
           f"trivial {before:.1f} MB, after {after:.1f} MB, large child {large.rss_mb:.1f} MB")


def tampered(runner, op, edit) -> str:
    """Run op, then rewrite its output with edit; returns the original text."""
    runner.cli(op)
    text = runner.stdout.read_text(encoding="utf-8")
    runner.stdout.write_text(edit(text), encoding="utf-8")
    return text


def test_checkers(runner) -> None:
    import check
    from workloads import Op
    out = runner.stdout
    runner.cli(Op("cell", 4, 60))
    expect("real compute output passes", not check.check_json_cell(out, 4, 60))
    record = json.loads(out.read_text(encoding="utf-8"))
    for key, value in (("N", str(int(record["N"]) + 1)), ("A_decimal", record["A_decimal"][:-1]),
                       ("D_exact", "1/2")):
        out.write_text(json.dumps(dict(record, **{key: value})), encoding="utf-8")
        expect(f"tampered {key} is rejected", bool(check.check_json_cell(out, 4, 60)))
    tampered(runner, Op("table", 3, 40), lambda text: text.replace("\n3,17,", "\n3,17,1", 1))
    expect("tampered table row is rejected", bool(check.check_csv_rows(out, 3, 40)))
    text = tampered(runner, Op("battery"), lambda text: text.replace(
        "FAIL  charpoly constant term  [m=9]", "PASS  charpoly constant term  [m=9]"))
    expect("battery with a pinned FAIL missing is rejected", bool(check.check_battery(out, 1)))
    out.write_text(text, encoding="utf-8")
    expect("real battery output passes", not check.check_battery(out, 1))
    runner.cli(Op("charpoly", 6))
    expect("real charpoly output passes", not check.check_charpoly(out, 1, 6))
    expect("charpoly exit code off the m mod 4 rule is rejected", bool(check.check_charpoly(out, 0, 6)))


def test_smoke_runs() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in ("cell", "sweep", "checks"):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{workload} smoke, trace {trace}"
            run = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                  "--seed", "3", "--seconds", "1", "--trace", str(trace),
                                  "--smoke"], capture_output=True, text=True, cwd=ROOT,
                                 timeout=170)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or len(lines) < 2:
                expect(name, False, f"exit {run.returncode}: {run.stderr.strip()[-300:]}")
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            expect(f"{name}: all outputs correct, none failed",
                   result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   run.stderr.strip()[-300:])
            expect(f"{name}: metrics are the declared ones",
                   set(result["metrics"]) == {m["name"] for m in declared[group]},
                   str(sorted(result["metrics"])))
            expect(f"{name}: seed, python and nproc recorded",
                   info["seed"] == 3 and info["python"] and info["nproc"] >= 1)


def main() -> int:
    launcher = start_launcher()
    try:
        import bench
        bench.WORK.mkdir(exist_ok=True)
        sys.set_int_max_str_digits(0)
        runner = bench.Runner(launcher, deadline=time.perf_counter() + 600)
        test_seeded_op_lists()
        test_peak_memory_is_per_child(runner)
        test_checkers(runner)
    finally:
        launcher.stdin.close()
        launcher.wait()
    test_smoke_runs()
    print(f"{len(failures)} self-test(s) failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
