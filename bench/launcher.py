"""Starts the benchmark's timed child processes and reports what each used.

A process's peak RSS (ru_maxrss) also counts the memory of the process that
started it, so a child of bench/run.py, which holds a corpus and its checks
in memory, would report run.py's peak instead of its own. run.py therefore
starts this small process once and has it start every timed child.

Requests arrive on stdin, one JSON list per line: [argv, log path]. Each gets
one JSON line back: [wall s, user+sys CPU s, peak RSS MB, exit code]. A child
still running after TIMEOUT_S is killed. End of input ends the launcher.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 150


def run(argv: list, log_path: str) -> list:
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return [wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode]


def main() -> None:
    for line in sys.stdin:
        argv, log_path = json.loads(line)
        print(json.dumps(run(argv, log_path)), flush=True)


if __name__ == "__main__":
    main()
