"""Core-speed meter: how fast the benchmark's core runs, moment by moment.

    python3 perfbench/meter.py CPU      # the child; stops when stdin closes

The cores of a shared virtual host run slower at times, most likely while
other tenants load the physical cores they share: here by up to ~35%, in
stretches from about a second to minutes, and with CPU time slowing as much
as wall time.  So the wall time of the same round of commands wanders by
±20% from run to run.

``SpeedMeter`` starts a child process pinned to the core that the command
processes run on.
Every ``PERIOD_S`` the child runs a fixed kernel of small numpy operations
twice and records the thread CPU time of the second pass (the first reloads
the kernel into the caches).  The two processes share the core, so they
never run at once: the kernel's CPU time does not depend on the program
under test or on how the scheduler shares the core, only on how fast the
core runs.  ``speed(samples, start, end)`` turns the samples inside a
command's run into the core's mean speed relative to ``REFERENCE_NS``; the
command's wall time times that speed is its time on a core where the kernel
takes ``REFERENCE_NS``.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np

PERIOD_S = 0.02
# The kernel's time on the reference core.  A definition, not a measurement:
# an idle core of this benchmark's host (2.1 GHz Xeon) takes ~200-280 us.
REFERENCE_NS = 250_000

_A = np.full((8, 8), 0.5)


def kernel() -> float:
    """Small-array numpy work, like the program's per-op overhead and GEMM."""
    x = _A
    for _ in range(40):
        x = (x @ _A) * 0.125 + 0.5
        x = np.maximum(x.sum(axis=0), 0.0)[None, :] * _A
    return float(x[0, 0])


def child(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    samples = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        kernel()
        t0 = time.thread_time_ns()
        kernel()
        samples.append((time.monotonic_ns(), time.thread_time_ns() - t0))
    json.dump(samples, sys.stdout)


class SpeedMeter:
    """The meter child on ``cpu``, from construction to ``stop()``.

    Use as a context manager: leaving the block kills a child that was not
    stopped and waits for it.
    """

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(cpu)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline() != "ready\n":
            self.close()
            raise RuntimeError("the core-speed meter did not start")

    def stop(self) -> list[tuple[int, int]]:
        """Stops the child; returns its (monotonic_ns, kernel_ns) samples."""
        out, _ = self.proc.communicate(timeout=60)
        return [tuple(s) for s in json.loads(out)]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()

    def __enter__(self) -> "SpeedMeter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def speed(samples: list[tuple[int, int]], start_ns: int, end_ns: int) -> float:
    """Mean speed of the core over [start_ns, end_ns], 1 = the reference.

    The mean of REFERENCE_NS / kernel_ns over samples taken at a steady
    pace is the work done per second relative to the reference core, so
    wall time times this speed is the time on the reference core.
    """
    inside = [ns for t, ns in samples if start_ns <= t <= end_ns]
    if not inside:  # a span shorter than the sampling period
        mid = (start_ns + end_ns) // 2
        inside = [min(samples, key=lambda s: abs(s[0] - mid))[1]]
    return statistics.fmean(REFERENCE_NS / ns for ns in inside)


if __name__ == "__main__":
    child(int(sys.argv[1]))
