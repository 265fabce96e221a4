"""Runs the benchmark's subprocesses and reports wall time and peak RSS.

Reads one JSON request per line on stdin, ``{"argv": [...], "out": path,
"err": path}``, runs it to completion and answers with one JSON line,
``{"code": int, "wall_s": float, "rss_mb": float}``.

Peak RSS comes from ``os.wait4`` on that one child, not from
``RUSAGE_CHILDREN``, which is a high-water mark over every child reaped so
far. The benchmark starts this process while it is still small, because
Linux starts a child's peak RSS at the RSS of the process that spawned it:
spawned straight from a benchmark holding a loaded index, every query would
report that index's memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall,
                          "rss_mb": usage.ru_maxrss / 1024}), flush=True)


if __name__ == "__main__":
    main()
