"""Machine-speed calibration: a fixed reference task brackets each timing.

On a shared virtual machine the vCPU's speed can change by a factor of two
for seconds at a time.  On a 2-vCPU Xeon guest the reference task below took
either ~1.8 ms or ~3.5 ms, little in between, switching every second or so,
and the sampler's throughput halved with it.  So every timed measurement runs
between two runs of the reference task, and its time is scaled by
CALIB_REF_S / (mean reference time), which reads as the time on that machine
at full speed.  Timings are kept short (0.1-1 s), so that most of them see one
speed from end to end; a median over many then gives a steady figure.

Each vCPU changes speed on its own, so the reference task runs on the CPUs
that do the work: each workload is pinned to one CPU per chain that runs at
once, and the task runs on each of them in turn and the mean is taken.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

CALIB_REF_S = 0.0018    # reference task at full speed, 2.0 GHz Xeon vCPU

_A = np.random.default_rng(0).standard_normal((256, 3))
_V = np.array([0.3, -0.2, 0.1])


def _task(n: int = 600) -> float:
    """Small numpy calls and interpreted arithmetic, like the sampler's."""
    acc, table = 0.0, {}
    for i in range(n):
        h = _A @ _V + i * 1e-6
        k = int(h.argmin())
        acc += float(h[k]) * 0.5 + (i % 7)
        table[k % 13] = acc
    return acc + len(table)


def task_time(reps: int = 3) -> float:
    """Best-of-`reps` seconds of the reference task."""
    best = float("inf")
    for _ in range(reps):
        t0 = perf_counter()
        _task()
        best = min(best, perf_counter() - t0)
    return best


def cpu_times() -> list[float]:
    """task_time on each CPU this process may use, one after another."""
    allowed = os.sched_getaffinity(0)
    if len(allowed) == 1:
        return [task_time()]
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(task_time())
    finally:
        os.sched_setaffinity(0, allowed)
    return times


class Bracket:
    """Context manager: reference task before and after the body.

    After exit, `scale` turns a time measured in the body into full-speed
    time (multiply a rate by 1 / scale).
    """

    def __enter__(self):
        self.before = cpu_times()
        return self

    def __exit__(self, *exc):
        self.after = cpu_times()
        both = self.before + self.after
        self.scale = CALIB_REF_S * len(both) / sum(both)
        return False
