"""Run one command and write "EXIT WALL_S PEAK_RSS_KIB" to RESULT.

Usage: python3 -S perfbench/spawn.py RESULT COMMAND...

On Linux a child's peak RSS starts from the peak RSS of the process that
forked it, so a child of the benchmark driver would report at least the
driver's own peak (it holds a 10 MB stdout).  This launcher imports nearly
nothing, so its children report their own peak down to about 13 MiB, below
that of any imptables call.  stdin, stdout and stderr pass straight through.
"""

import os
import sys
import time

start = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w", encoding="ascii") as result:
    result.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}\n")
