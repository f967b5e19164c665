"""Run one command; write its exit code, wall time and own peak RSS.

    python3 perfbench/launch.py LIMIT RESULT STDOUT STDERR CMD [ARG ...]

The command is spawned from this small interpreter, not from the benchmark:
a child records the peak resident set of the process it was spawned from, so
only a parent smaller than the program lets os.wait4 report the program's own
peak.  RESULT receives "exit_code wall_seconds peak_kib".  A command still
running after LIMIT seconds is killed, and its exit code is then -9.
"""

import os
import signal
import sys
import time

limit, result, out, err, *cmd = sys.argv[1:]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
redirects = [
    (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
    (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
]
start = time.perf_counter()
pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=redirects)
signal.signal(signal.SIGALRM, lambda signum, frame: os.kill(pid, signal.SIGKILL))
signal.alarm(max(1, int(limit)))
_, status, usage = os.wait4(pid, 0)
elapsed = time.perf_counter() - start
signal.alarm(0)
with open(result, "w", encoding="ascii") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {elapsed!r} {usage.ru_maxrss}\n")
