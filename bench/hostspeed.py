"""Host speed, sampled alongside the program, to scale its timings.

The benchmark's host is shared.  Its speed changes from second to second and
from minute to minute: the same Python code runs up to 1.8x slower in a slow
phase, in CPU time as much as in wall time, and the level of the slow phase
itself drifts by tens of percent over minutes.  A mean or a median over one
run still moves with that drift.

So the run also times a fixed reference kernel, about a millisecond at a
time, spread over the whole measured window.  The kernel mixes small complex
numpy array products with a plain Python float loop, like the program does,
and it calls nothing in qkernel, so no change to the program moves it.  The
mean of its samples tells how fast the host ran during the run, and the
program's mean times are scaled by ``REFERENCE_S / mean``: a time in seconds
as it would read on a host where the kernel takes ``REFERENCE_S``.  A change
to the program moves the scaled times as it moves the raw ones; a change of
host speed moves the kernel as well and mostly cancels.

Means, not medians: the host's speed is bimodal, so a median jumps from one
mode to the other when the run's share of fast time crosses one half, and it
jumps at a different share for each case.  A mean moves smoothly with that
share, for the kernel and the program alike.

Changing the kernel or ``REFERENCE_S`` rescales every reported time, so
both stay as they are.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array

import numpy as np

# The kernel's mean time on the 2-vCPU Xeon host of bench/README.md.
REFERENCE_S = 1.3e-3
# Least time between two samples; a sample is taken only between check calls.
INTERVAL_S = 0.02


def reference_kernel() -> float:
    """A fixed piece of work; its time is one sample of the host's speed."""
    a = np.linspace(0.1, 0.9, 128) * (0.8 + 0.3j)
    acc = np.ones(128, dtype=complex)
    qk = 1.0
    for _ in range(200):
        acc = acc * (1.0 - a * qk)
        qk *= 0.97
    s, x = 0.0, 0.5
    for _ in range(3000):
        s = s * 0.999 + x
        x = x * 0.9999 + 1e-3
    return float(abs(acc[-1])) + s


class HostSpeed:
    """Samples of the reference kernel over one run."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples = array("d")
        self._last = -math.inf

    def sample(self) -> None:
        started = time.perf_counter()
        reference_kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - started)

    def tick(self) -> None:
        """Take a sample if `interval` has passed since the last one."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)

    def factor(self) -> float:
        """Multiply a mean time measured in this run by this to scale it."""
        return REFERENCE_S / self.mean_s()
