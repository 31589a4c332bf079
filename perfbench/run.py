#!/usr/bin/env python3
"""Benchmark of the consets command-line program.

    python3 perfbench/run.py --workload cell --seed 1 --seconds 30 --trace 0
    python3 perfbench/selftest.py

Run it from the root of a source checkout.  Every invocation is a fresh
``python -m consets.cli`` process with PYTHONPATH=src, because consets keeps
its tables and caches in module globals and a user pays them cold on every
CLI run.  The load is one closed-loop client: one child at a time.

A run repeats its workload's op list (workloads.py) pass after pass while
its measuring time lasts and reports medians over passes.  Every output is
checked by check.py, which does not import consets.  The last line of
stdout is the result, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics under ``--trace 0``, and under ``--trace 1`` the
per-layer metrics that probe.py measures with each op in a fresh child.
The line before it records the seed, the Python version and the CPU count.
"""

import os
import subprocess
import sys


def start_launcher() -> subprocess.Popen:
    """Start spawn.py with the environment the CLI children get."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    # The CLI children keep the interpreter's default int->str limit.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return subprocess.Popen([sys.executable, "-I", "-S", os.path.join(here, "spawn.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            cwd=root, env=env)


def main() -> int:
    # The launcher starts before this process imports the harness, so the
    # memory high-water mark it passes on to every child stays small.
    launcher = start_launcher()
    try:
        import bench
        return bench.main(sys.argv[1:], launcher)
    finally:
        launcher.stdin.close()
        launcher.wait()


if __name__ == "__main__":
    sys.exit(main())
