"""A fixed reference loop that measures how fast the shared machine runs right now.

The development machine shares its cores with other tenants, and its speed
for the same CPU-bound work moves by up to 1.8x, within seconds and for
minutes at a time, on each CPU on its own.  User CPU time moves with wall
time, so the lost cycles are not steal time and cannot be subtracted.  What
can be done is to time a fixed piece of work on each CPU before and after
every measured step, and to scale the step's wall time by how much slower
than usual that work ran on the CPUs the step used, around the step:

    calibrated = wall * REFERENCE_S / mean(reference times near the step)

"Near" is within the step's own length of its start and end, and at least
within a second, so a short step is judged by the samples just before and
after it and a long one by the machine's speed over a window as long as
itself.

The reference is the benchmark's own code, never the program's, so a change
to the program moves the calibrated time exactly as it moves the wall time.
Its instruction mix is the program's: a Python loop of small numpy calls
(per-row angles, as in ``metrics`` and ``audit``) and whole-array numpy
arithmetic on arrays larger than L2 (as in ``estimators``).  Measured against
``evaluate`` and ``diff-gt --scan-offset`` stages run back to back on the
same CPU, its time correlated 0.7-0.95 with theirs, and calibration cut the
spread between the stages' quartiles from 0.2-0.29 to 0.08-0.17 of the
median.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

# The reference loop's time on the development machine when nothing else
# slowed it (2-vCPU Intel Xeon, CPython 3.11, numpy 2.x).  Calibrated times
# read as seconds on that machine at that speed.
REFERENCE_S = 0.05
NEAR_S = 1.0  # the least distance from a step at which samples count for it

WARM_UP = 3  # untimed runs first: the first one pays for page faults and caches

_RNG = np.random.default_rng(12345)
_VECTORS = _RNG.random((2000, 3)) + 0.1
_ARRAY = _RNG.random(1_000_000)


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference loop."""
    start = time.perf_counter()
    anchor = _VECTORS[0] / np.linalg.norm(_VECTORS[0])
    acc = 0.0
    for _ in range(3):
        for v in _VECTORS:
            u = v / np.linalg.norm(v)
            acc += math.degrees(math.acos(min(1.0, float(np.dot(u, anchor)))))
    for _ in range(6):
        acc += float(np.sqrt(_ARRAY * _ARRAY + 1.0).sum())
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("reference loop produced a non-finite result")
    return elapsed


class Clock:
    """Samples the reference loop on every CPU, and calibrates steps against it.

    The CPUs of a shared machine slow down independently of each other, so
    the reference runs once on each CPU, with this process pinned there for
    the purpose.  A step is calibrated against the CPUs it ran on: the one a
    single-process stage was pinned to, or all of them.  Call ``sample``
    before and after every step.
    """

    def __init__(self, cpus) -> None:
        self.cpus = sorted(cpus)
        self.samples: list[tuple[float, int, float]] = []  # (when, cpu, seconds)
        for _ in range(WARM_UP):
            reference_seconds()

    def sample(self) -> None:
        own = os.sched_getaffinity(0)
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                self.samples.append((time.perf_counter(), cpu, reference_seconds()))
        finally:
            os.sched_setaffinity(0, own)

    def calibrate(self, wall: float, start: float, end: float, cpus=None) -> float:
        """Calibrated seconds of a step of ``wall`` seconds that ran from ``start`` to ``end``."""
        near = max(end - start, NEAR_S)
        ran_on = set(self.cpus if cpus is None else cpus)
        refs = [s for when, cpu, s in self.samples
                if cpu in ran_on and start - near <= when <= end + near]
        return wall * REFERENCE_S / statistics.fmean(refs)

    @property
    def speed(self) -> float:
        """REFERENCE_S over the median reference time: 1.0 at the usual speed."""
        return REFERENCE_S / statistics.median(s for _, _, s in self.samples)
