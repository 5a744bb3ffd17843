"""A fixed calibration loop that measures how fast the host runs right now.

On a shared machine the same work can take 1.5-1.8x longer while other
tenants are busy, in phases lasting seconds to minutes.  The runner times
this loop three times before and after every timed chunk of gwasel work,
and reports each chunk's wall time divided by the mean of the two medians
around it (``wall_per_cal``); the median of three ignores a loop that a
short burst of contention slowed.  The loop mixes the three kinds of work
the workloads do -- an interpreter-bound loop over small arrays (search,
regress), matrix-vector products (scan, clustering) and text tokenising
(load, CLI output) -- so it slows down with the host in roughly the same
proportion.
It uses no gwasel code, so a change to gwasel cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np


class Calibration:
    def __init__(self, seed: int = 12345):
        rng = np.random.default_rng(seed)
        self._a = rng.random((600, 500))
        self._v = rng.random(600)
        self._text = " ".join(str(x) for x in rng.integers(-1, 2, size=20_000))
        self.samples: list[float] = []

    def measure(self) -> float:
        """Run the loop once (about 0.2 s on a 2.1 GHz core); returns its seconds."""
        t = time.perf_counter()
        small = np.linspace(0.5, 1.5, 64)
        s = 0.0
        for i in range(30_000):
            c = math.hypot(small[i % 64], 1.0)
            row = small[i % 32: i % 32 + 32].copy()
            s += float((c * row) @ row)
        for _ in range(360):
            s += float((self._a.T @ self._v).sum())
        for _ in range(30):
            s += len("\t".join(self._text.split()))
        dt = time.perf_counter() - t
        self.samples.append(dt)
        return dt


class Clock:
    """Times chunks of work, each between two calibrations."""

    LOOPS = 3

    def __init__(self, calibration: Calibration):
        self.cal = calibration
        self._last = self._calibrate()

    def _calibrate(self) -> float:
        return statistics.median(self.cal.measure() for _ in range(self.LOOPS))

    def chunk(self, fn):
        """Run ``fn()``; returns (its result, wall seconds, wall / calibration)."""
        t = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t
        after = self._calibrate()
        ratio = dt / (0.5 * (self._last + after))
        self._last = after
        return result, dt, ratio
