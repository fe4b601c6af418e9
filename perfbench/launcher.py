"""Spawns the measured CLI processes, one at a time, for the runner.

On Linux a child's ru_maxrss, as os.wait4 reports it, is at least the peak
resident size of the process it was spawned from. This launcher stays
small, so the figure it reports is the CLI's own peak; the runner, which
reads and checks outputs, would raise that floor.

While a child runs, a thread here times short bursts of calibrate.kernel,
PROBE_UNITS units every PROBE_GAP_S seconds. The child is single-threaded,
so the bursts run on the other processor; on a shared machine both change
speed together, and the mean time of a unit during the child gives the
speed the child ran at.

Reads one JSON request per line on stdin, ``[argv, stdout_path, timeout]``,
runs the child with stdout to that file and stderr next to it (suffix
.err), and answers with one JSON line
``[exit_code, wall_s, maxrss_kib, unit_s]``: exit_code is null when the
child was killed at the timeout, and unit_s is the mean seconds per
calibration unit while the child ran.
"""

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import calibrate

PROBE_UNITS = 4          # about 5 to 10 ms of work
PROBE_GAP_S = 0.04


def probe(done: threading.Event, samples: list) -> None:
    while True:
        start = time.perf_counter()
        calibrate.kernel(PROBE_UNITS)
        samples.append((time.perf_counter() - start) / PROBE_UNITS)
        if done.wait(PROBE_GAP_S):
            return


def run(argv: list[str], stdout_path: str, timeout: float) -> list:
    killed = threading.Event()
    done = threading.Event()
    samples: list[float] = []
    err_path = os.path.splitext(stdout_path)[0] + ".err"
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        prober = threading.Thread(target=probe, args=(done, samples))
        prober.start()

        def kill() -> None:
            killed.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            done.set()
        wall = time.perf_counter() - start
        prober.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return [None if killed.is_set() else proc.returncode, wall, usage.ru_maxrss,
            statistics.mean(samples)]


if __name__ == "__main__":
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(*json.loads(line))) + "\n")
        sys.stdout.flush()
