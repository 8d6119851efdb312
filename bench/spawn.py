"""Runs command lines for bench/run.py from a small process.

On Linux a child's peak RSS includes the memory of the process that forked
it, so the benchmark forks the measured rqbm processes from this one, which
is started before the benchmark imports numpy.  Reads one JSON request per
line, {"argv", "cwd", "env", "log"}, runs it to its exit and answers one JSON
line, {"rc", "wall", "cpu", "rss_mb"}: wall time from spawn to exit, CPU
time and peak RSS from the child's own rusage.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    req = json.loads(line)
    with open(req["log"], "a") as log:
        log.write("$ " + " ".join(req["argv"]) + "\n")
        log.flush()
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"rc": proc.returncode, "wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
                      "rss_mb": ru.ru_maxrss / 1024}), flush=True)
