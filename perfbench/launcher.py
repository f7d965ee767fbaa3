"""Spawns and reaps the benchmarked commands from a small process.

Linux charges a spawned child with the peak RSS of the process that
spawned it (the address space it ran in until ``exec``), so children of
the benchmark itself, which holds the corpus and its oracles, would all
report the benchmark's own peak.  ``run.py`` starts this launcher before
it loads anything, and the launcher -- a bare interpreter -- spawns every
command, so each ``ru_maxrss`` is the command's own.

Protocol, one JSON object per line: the request on stdin is
``{"argv", "env", "stdout", "stderr"}``; the reply on stdout is
``{"wall", "returncode", "maxrss_kb"}``.  The launcher exits at end of
input.
"""

import json
import os
import sys
import time


def spawn(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
    ]
    argv = request["argv"]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "returncode": os.waitstatus_to_exitcode(status),
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(spawn(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
