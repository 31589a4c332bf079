"""The harness behind run.py: runs a workload's passes, checks every output
and turns the measurements into metrics."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
from workloads import GROUP, SETUP, WORKLOADS, Op, build_ops, reference_ops, smoke_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio", "setup_s": "s"}
PER_LAYER = {
    "cli.import_s": "s", "layers.profile_table_s": "s", "orders.order_table_s": "s",
    "layers.peak_mb": "MB", "orders.peak_mb": "MB", "aggregate.evaluate_s": "s",
    "cli.render_s": "s", "ladder.rows_s": "s", "cli.render_failed": "count",
    "aggregate.n_digits": "count", "cli.out_bytes": "bytes", "oracle.census_s": "s",
    "oracle.subsets_per_s": "1/s", "oracle.subsets": "count",
    "exactmath.char_poly_s": "s", "recurrence.validate_coefficients_s": "s",
    "verify.oracle_grid_s": "s", "verify.ladder_s": "s", "verify.ladder_identity_s": "s",
    "verify.charpoly_s": "s", "verify.stream_s": "s", "verify.symmetry_s": "s",
    "verify.order_path_s": "s", "verify.anchor_s": "s", "verify.checks": "count",
    "verify.failed": "count", "trace.wall_ratio": "ratio",
}
#: Trivial invocations timed before each pass; setup_s is their median.
SETUP_PER_PASS = 2
#: The nominal time of speedref.py, and the output it must print.
REFERENCE_S = 0.13
SPEEDREF_OUTPUT = ["255997", "828174", "81404"]
#: No pass starts after this many seconds, and no child outlives the
#: hard limit, so a run ends well inside 180 s even if a later commit is slow.
MAX_MEASURE_S = 120.0
HARD_LIMIT_S = 165.0


@dataclass(frozen=True)
class Outcome:
    code: int
    wall_s: float
    rss_mb: float


class Runner:
    """Runs children through the launcher (spawn.py).  A child's stdout goes
    to a file, never into this process, and is checked from there."""

    def __init__(self, launcher: subprocess.Popen, deadline: float):
        self.launcher = launcher
        self.deadline = deadline
        self.stdout = WORK / "stdout.txt"
        self.stderr = WORK / "stderr.txt"

    def spawn(self, command: list[str]) -> Outcome:
        request = {"argv": command, "stdout": str(self.stdout), "stderr": str(self.stderr),
                   "timeout": max(1.0, self.deadline - time.perf_counter())}
        print(json.dumps(request), file=self.launcher.stdin, flush=True)
        return Outcome(**json.loads(self.launcher.stdout.readline()))

    def cli(self, op: Op) -> Outcome:
        return self.spawn([sys.executable, "-m", "consets.cli", *op.argv(graph_path(op))])

    def probe(self, op: Op, memory: bool) -> tuple[Outcome, dict[str, float] | None]:
        spec = {"kind": op.kind, "m": op.m, "n": op.n, "path": graph_path(op)}
        outcome = self.spawn([sys.executable, str(HERE / "probe.py"), json.dumps(spec),
                              *(["--memory"] if memory else [])])
        try:
            lines = self.stdout.read_text(encoding="utf-8").splitlines()
            metrics = json.loads(lines[-1])["metrics"] if outcome.code == 0 else None
        except (IndexError, ValueError, KeyError):
            metrics = None
        return outcome, metrics

    def stderr_tail(self) -> str:
        lines = self.stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return lines[-1][:160] if lines else ""


def graph_path(op: Op) -> str:
    if op.kind != "graph":
        return ""
    digest = hashlib.sha256(repr(op.edges).encode()).hexdigest()[:12]
    return str((WORK / f"graph-{digest}.txt").relative_to(ROOT))


def write_graphs(ops: list[Op]) -> None:
    for op in ops:
        if op.kind == "graph":
            (ROOT / graph_path(op)).write_text(
                "".join(f"{u} {v}\n" for u, v in op.edges), encoding="utf-8")


class Checker:
    """Verdict for one invocation: "ok", "failed" (refused, crashed, killed)
    or "wrong" (a result that does not check out).  A byte-identical repeat
    of an output already checked for the same op reuses its verdict."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.seen: dict[Op, tuple[tuple[int, str], tuple[str, str]]] = {}

    def __call__(self, op: Op, outcome: Outcome) -> tuple[str, str]:
        digest = hashlib.sha256()
        with self.runner.stdout.open("rb") as out:
            for chunk in iter(lambda: out.read(1 << 20), b""):
                digest.update(chunk)
        key = (outcome.code, digest.hexdigest())
        if op in self.seen and self.seen[op][0] == key:
            return self.seen[op][1]
        verdict = self.judge(op, outcome.code)
        self.seen[op] = (key, verdict)
        return verdict

    def judge(self, op: Op, code: int) -> tuple[str, str]:
        path = self.runner.stdout
        reports = op.kind in ("battery", "census", "graph", "charpoly")
        crashed = "Traceback" in self.runner.stderr.read_text(encoding="utf-8", errors="replace")
        if code not in ((0, 1) if reports else (0,)) or crashed:
            return "failed", f"{op.argv(graph_path(op))}: exit {code}: {self.runner.stderr_tail()}"
        try:
            if op.kind == "setup":
                problems = check.check_plain(path, op.m, op.n)
            elif op.kind == "cell":
                problems = check.check_json_cell(path, op.m, op.n)
            elif op.kind in ("table", "ladder"):
                problems = check.check_csv_rows(path, 2 if op.kind == "ladder" else op.m, op.n)
            elif op.kind == "battery":
                problems = check.check_battery(path, code)
            elif op.kind == "census":
                problems = check.check_census_cell(path, code, op.m, op.n)
            elif op.kind == "graph":
                problems = check.check_graph(path, code, op.vertex_count, op.edges)
            else:
                problems = check.check_charpoly(path, code, op.m)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            problems = [f"output does not parse: {exc!r}"]
        if problems:
            return "wrong", f"{op.argv(graph_path(op))}: {'; '.join(problems)[:300]}"
        return "ok", ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    workload_ops: int = 0
    workload_ok: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, verdict: tuple[str, str], workload_op: bool) -> None:
        status, note = verdict
        self.attempted += 1
        self.failed += status != "ok"
        self.wrong += status == "wrong"
        self.workload_ops += workload_op
        self.workload_ok += workload_op and status == "ok"
        if note and note not in self.notes:
            self.notes.append(note)


def run_pass(ops: list[Op], runner: Runner, checker: Checker, tally: Tally) -> list[Outcome]:
    """One pass over the op list, every output checked."""
    outcomes = []
    for op in ops:
        outcomes.append(runner.cli(op))
        tally.add(checker(op, outcomes[-1]), workload_op=True)
    return outcomes


def keep_going(start: float, rounds: int, seconds: float) -> bool:
    """Start another pass only if it should end within the measuring time."""
    elapsed = time.perf_counter() - start
    return elapsed * (rounds + 1) / rounds <= min(seconds, MAX_MEASURE_S)


def speed_reference(runner: Runner) -> float:
    """Wall time of the fixed reference work in speedref.py."""
    outcome = runner.spawn([sys.executable, "-I", "-S", str(HERE / "speedref.py")])
    if outcome.code != 0 or runner.stdout.read_text(encoding="utf-8").split() != SPEEDREF_OUTPUT:
        raise RuntimeError(f"speed reference failed: exit {outcome.code}: {runner.stderr_tail()}")
    return outcome.wall_s


def relative_pass(invocations: list[tuple[Op, bool]], runner: Runner, checker: Checker,
                  tally: Tally, before: float) -> tuple[list[tuple[Outcome, float]], float]:
    """Runs each invocation followed by the speed reference.  Each outcome
    comes with its wall time over the mean of the reference times on either
    side of it; ``before`` is the reference time that precedes the first."""
    results = []
    for op, workload_op in invocations:
        outcome = runner.cli(op)
        tally.add(checker(op, outcome), workload_op=workload_op)
        after = speed_reference(runner)
        results.append((outcome, 2 * outcome.wall_s / (before + after)))
        before = after
    return results, before


def untraced(ops: list[Op], seconds: float, runner: Runner, checker: Checker,
             tally: Tally) -> tuple[dict[str, float], dict[str, object]]:
    """Every invocation is timed between two runs of speedref.py and taken
    relative to them.  wall_s sums each op's median relative time over the
    passes and setup_s is the median relative trivial invocation; both are
    multiplied by REFERENCE_S to read as seconds at nominal speed.
    peak_rss_mb is the largest per-op median peak."""
    invocations = [(SETUP, False)] * SETUP_PER_PASS + [(op, True) for op in ops]
    passes: list[list[tuple[Outcome, float]]] = []
    before = speed_reference(runner)
    references = [before]
    start = time.perf_counter()
    while not passes or keep_going(start, len(passes), seconds):
        results, before = relative_pass(invocations, runner, checker, tally, before)
        references.append(before)
        passes.append(results)
    setups = [relative for p in passes for _, relative in p[:SETUP_PER_PASS]]
    per_op = list(zip(*(p[SETUP_PER_PASS:] for p in passes)))
    wall = sum(statistics.median(relative for _, relative in runs) for runs in per_op)
    return ({"wall_s": wall * REFERENCE_S,
             "setup_s": statistics.median(setups) * REFERENCE_S,
             "peak_rss_mb": max(statistics.median(o.rss_mb for o, _ in runs) for runs in per_op),
             "ok_frac": tally.workload_ok / tally.workload_ops},
            {"passes": len(passes),
             "unscaled_wall_s": sum(statistics.median(o.wall_s for o, _ in runs)
                                    for runs in per_op),
             "unscaled_setup_s": statistics.median(o.wall_s for p in passes
                                                   for o, _ in p[:SETUP_PER_PASS]),
             "speedref_s": references,
             "pass_wall_s": [sum(o.wall_s for o, _ in p[SETUP_PER_PASS:]) for p in passes]})


def combine(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer totals over the probes of one round: times and counts add
    up, peaks take the maximum, import time takes the median."""
    combined: dict[str, float] = {}
    for key in {key for sample in samples for key in sample}:
        values = [sample[key] for sample in samples if key in sample]
        if key == "cli.import_s":
            combined[key] = statistics.median(values)
        elif key.endswith("peak_mb"):
            combined[key] = max(values)
        else:
            combined[key] = sum(values)
    if combined.get("oracle.census_s"):
        combined["oracle.subsets_per_s"] = combined["oracle.subsets"] / combined["oracle.census_s"]
    return combined


def traced(ops: list[Op], seconds: float, runner: Runner, checker: Checker,
           tally: Tally) -> tuple[dict[str, float], dict[str, object]]:
    """Rounds of one untraced pass followed by the same ops probed, each in a
    fresh child (a timing probe, plus a tracemalloc probe for table-building
    ops).  trace.wall_ratio is probed wall time over untraced wall time."""
    references = reference_ops(ops)
    rounds: list[dict[str, float]] = []
    start = time.perf_counter()
    while not rounds or keep_going(start, len(rounds), seconds):
        untraced_wall = sum(o.wall_s for o in run_pass(ops, runner, checker, tally))
        samples, traced_wall = [], 0.0
        for op in ops + references:
            for memory in (False, True) if GROUP[op.kind] == "tables" else (False,):
                outcome, metrics = runner.probe(op, memory)
                tally.add(("ok", "") if metrics is not None else
                          ("failed", f"probe {op.kind} memory={memory}: exit {outcome.code}: "
                                     f"{runner.stderr_tail()}"), workload_op=False)
                samples.append(metrics or {})
                traced_wall += outcome.wall_s if op in ops else 0.0
        round_metrics = combine(samples)
        round_metrics["trace.wall_ratio"] = traced_wall / untraced_wall
        rounds.append(round_metrics)
    keys = {key for metrics in rounds for key in metrics}
    return ({key: statistics.median(r[key] for r in rounds if key in r) for key in keys},
            {"passes": len(rounds), "pass_wall_ratio": [r["trace.wall_ratio"] for r in rounds]})


def main(argv: list[str], launcher: subprocess.Popen) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description="Benchmark of the consets CLI.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one pass; for the self-tests")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + HARD_LIMIT_S
    if not (ROOT / "src" / "consets" / "cli.py").is_file():
        print(f"error: no consets sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Parsing the outputs needs big int<->str conversions; the CLI children
    # keep the interpreter's default limit.
    sys.set_int_max_str_digits(0)
    WORK.mkdir(exist_ok=True)
    ops = (smoke_ops if args.smoke else build_ops)(args.workload, args.seed)
    write_graphs(ops)
    seconds = 0.0 if args.smoke else args.seconds
    runner = Runner(launcher, deadline)
    checker = Checker(runner)
    tally = Tally()
    runner.cli(SETUP)  # untimed: compiles the package's bytecode cache
    measure = traced if args.trace else untraced
    values, detail = measure(ops, seconds, runner, checker, tally)
    units = PER_LAYER if args.trace else END_TO_END
    for note in tally.notes:
        print(f"note: {note}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "ops": len(ops), **detail,
                      "python": platform.python_version(),
                      "nproc": len(os.sched_getaffinity(0))}))
    print(json.dumps({
        "correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values}}))
    return 0

