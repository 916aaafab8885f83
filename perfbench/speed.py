"""Timings at a reference machine speed.

The cores of a shared host run the same code at speeds up to twice apart,
switching every few seconds and drifting for minutes, which no run length
here averages out.  So between operations (at most every INTERVAL_S) the
benchmark times a fixed kernel of its own, of the same make as rotvac's work,
three times, and keeps the median.  Each operation's wall time is
scaled by REFERENCE_MS over the mean of the kernel times just before and just
after it, and so is each set-up probe.  A change to rotvac moves the scaled
times; a change of machine speed moves the kernel with them.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np
from scipy.integrate import quad

# Scaled times are those of a machine on which the kernel takes this long;
# the machine of the README figures takes 0.8 ms at its fastest, 1.2 ms typically.
REFERENCE_MS = 1.0
INTERVAL_S = 0.1
SAMPLES = 3

_LARGE = np.linspace(0.0, 3.0, 96 * 192).reshape(96, 192)
_SMALL = np.linspace(0.0, 3.0, 24 * 48).reshape(24, 48)


def _thermal(u: float, phase: float) -> float:
    return u**3 * math.exp(-(2.0 * math.pi - phase) * u) / -math.expm1(-2.0 * math.pi * u)


def kernel() -> float:
    """Numpy trigonometry and reductions on one large and ten small grids,
    and two QUADPACK integrals of a Python integrand: the three kinds of work
    rotvac's layers do, which contention slows by different amounts."""
    total = 0.0
    for grid in (_LARGE,) + (_SMALL,) * 10:
        y = np.cos(2.0 * grid) * np.sin(grid) / (1.0 + 0.5 * grid * grid) ** 2
        total += float(np.einsum("ij->", y))
    for phase in (0.5, 3.0):
        total += quad(lambda u: _thermal(u, phase) if u > 0.0 else 0.0, 0.0, math.inf)[0]
    return total


def kernel_time(threads: int = 1) -> float:
    """Median wall time of SAMPLES runs of the kernel on ``threads`` threads
    at once, in seconds."""
    times = []
    for _ in range(SAMPLES):
        workers = [threading.Thread(target=kernel) for _ in range(threads - 1)]
        start = time.perf_counter()
        for w in workers:
            w.start()
        kernel()
        for w in workers:
            w.join()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """A wall time scaled to the reference speed."""
    return seconds * REFERENCE_MS * 1e-3 / ((kernel_before + kernel_after) / 2.0)


class Clock:
    """Records operation wall times and the kernel times around them.

    An operation that runs on two threads (the Monte Carlo pool) is scaled by
    the kernel run on two threads at once, since the two cores of the host
    change speed apart from each other.
    """

    def __init__(self):
        self.kernel_s: Dict[int, List[float]] = defaultdict(list)
        self._ops: List[tuple] = []    # (key, wall seconds, threads, kernel index before, is value)
        self._last: Dict[int, float] = defaultdict(lambda: -math.inf)

    def _calibrate(self, threads: int) -> None:
        self.kernel_s[threads].append(kernel_time(threads))
        self._last[threads] = time.perf_counter()

    def before_op(self, threads: int = 1) -> None:
        if time.perf_counter() - self._last[threads] >= INTERVAL_S:
            self._calibrate(threads)

    def record(self, key: str, seconds: float, is_value: bool, threads: int = 1) -> None:
        self._ops.append((key, seconds, threads, len(self.kernel_s[threads]) - 1, is_value))
        if seconds >= INTERVAL_S:
            self._calibrate(threads)

    def finish(self) -> None:
        for threads in list(self.kernel_s):
            self._calibrate(threads)

    def scaled(self, values_only: bool = False) -> Dict[str, List[float]]:
        """Operation key -> its wall times at the reference speed, in seconds."""
        out = defaultdict(list)
        for key, seconds, threads, i, is_value in self._ops:
            if values_only and not is_value:
                continue
            out[key].append(at_reference(seconds, *self.kernel_s[threads][i:i + 2]))
        return out

    def speed(self) -> float:
        """Median one-thread kernel time over REFERENCE_MS: 2 when the machine
        runs at half the reference speed."""
        return statistics.median(self.kernel_s[1]) / (REFERENCE_MS * 1e-3)
