"""Fixed reference work that measures the machine's current speed.

On a shared machine, speed can drift by tens of percent over tens of
seconds.  Timing fixed work next to each op lets the benchmark express
costs in reference units, which cancels the drift.
In-process ops are read against a pure-Python kernel; cold-process ops
against a cold interpreter that imports numpy, because process start-up
and shared-library loading drift differently from in-process compute.
"""

from __future__ import annotations

import math
import resource
import subprocess
import sys
import time

STEPS = 12000
# Set-up time is reported in seconds on a machine where the workload's
# reference work takes this long (the kernel, or a cold numpy import), so
# that a drift in machine speed does not read as a change.
NOMINAL_S = 0.005
NOMINAL_COLD_S = 0.15


def kernel() -> float:
    """Float math, formatting and a list: about 5 ms of the kind of work caw does."""
    acc = 0.0
    parts = []
    for i in range(1, STEPS + 1):
        x = math.log(i) * 0.5
        acc += math.exp(-x) * (1.0 + x) ** 0.5
        if i % 4 == 0:
            parts.append(format(acc, ".17g"))
    return len(",".join(parts)) + acc


def timed() -> tuple[int, int]:
    """(wall ns, CPU ns) of one kernel run."""
    c0, t0 = time.process_time_ns(), time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0, time.process_time_ns() - c0


def timed_cold() -> tuple[int, int]:
    """(wall ns, children CPU ns) of one fresh ``python -c "import numpy"``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    wall = time.perf_counter_ns() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return wall, int(cpu * 1e9)
