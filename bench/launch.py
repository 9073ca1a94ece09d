"""Start commands for ``run.py`` and report each one's own peak RSS.

Usage::

    python3 launch.py

Requests come on standard input, one JSON object a line::

    {"argv": [...], "cwd": "...", "out": "stdout file", "err": "stderr file", "timeout": 120.0}

For each, the command runs with its output sent to the two files, is reaped
with ``os.wait4``, and one line is answered on standard output::

    {"code": 0, "wall_s": 1.23, "maxrss_kb": 81234, "timed_out": false}

A command still running after ``timeout`` seconds is killed.  The launcher
exits at the end of its input.

On Linux a new program's ``ru_maxrss`` starts from the peak RSS of the
process that started it, because the peak is carried over through ``exec``.
``run.py`` holds the generated corpus, so a command started from it would
report at least ``run.py``'s peak.  Commands are therefore started from this
small process, whose own peak is below that of a bare interpreter.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


class Launcher:
    def __init__(self) -> None:
        self.pid: int | None = None
        self.timed_out = False
        signal.signal(signal.SIGALRM, self._kill)

    def _kill(self, signum, frame) -> None:
        if self.pid is not None:
            self.timed_out = True
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:  # ended as the timer fired
                pass

    def run(self, request: dict) -> dict:
        self.timed_out = False
        with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
            self.pid = proc.pid
            signal.setitimer(signal.ITIMER_REAL, request["timeout"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self.pid = None
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return {"code": code, "wall_s": wall, "maxrss_kb": usage.ru_maxrss, "timed_out": self.timed_out}


def main() -> int:
    launcher = Launcher()
    for line in sys.stdin:
        sys.stdout.write(json.dumps(launcher.run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
