"""Launcher: starts the benchmark's children one at a time and reports each
one's exit code, wall time and peak resident memory.

A child's ru_maxrss starts at the memory high-water mark of the process
that spawns it, so children are spawned from here, a process started
before the harness grows and that never holds a child's output.  Requests
arrive on stdin, one JSON object per line:

    {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}

and each gets one JSON line back: {"code", "wall_s", "rss_mb"}.  The
children inherit this process's environment and working directory.
"""

import json
import os
import select
import signal
import sys
import time


def run(request: dict) -> dict:
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
    for fd, key in ((1, "stdout"), (2, "stderr")):
        actions.append((os.POSIX_SPAWN_OPEN, fd, request[key],
                        os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644))
    argv = request["argv"]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], request["timeout"])[0]:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    return {"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
