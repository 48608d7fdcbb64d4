"""Wall times scaled to a reference machine speed.

A shared virtual machine can switch between a fast and a slow regime: on
the 2-vCPU host the baseline was measured on they are about 1.7x apart and
each lasts 5-40 s, so raw wall times of the same code differ by a third
from one run to the next.  A run is cut, between reports, into segments of
at least ``SEGMENT_S`` of work, and a fixed pure-Python kernel that shares no
code with pweyl runs after each segment.  A segment's wall times are
multiplied by ``REF_S`` over the median of the four kernel times around it
(two before, two after): they become seconds at the speed where the kernel
takes ``REF_S``.  The median rides out both the kernel's own jitter and a
regime switch next to the segment.
"""

import statistics
import time

REPS = 600
REF_S = 0.05
SEGMENT_S = 0.25


def kernel(reps):
    """Sparse bivariate polynomial products mod a prime, on tuple-keyed dicts."""
    p = 10007
    f = {(i, j): (31 * i + 17 * j + 1) % p for i in range(6) for j in range(6) if (i + j) % 2 == 0}
    size = 0
    for _ in range(reps):
        out = {}
        for (a, b), c in f.items():
            for (d, e), g in f.items():
                key = (a + d, b + e)
                v = (out.get(key, 0) + c * g) % p
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        size += len(out)
    return size


def kernel_seconds():
    start = time.perf_counter()
    kernel(REPS)
    return time.perf_counter() - start


class Calibration:
    """Records labelled segments of wall time with a kernel run after each."""

    def __init__(self):
        self._kernels = [kernel_seconds()]
        self._segments = []  # (label, wall seconds, report latencies)
        self._label = None
        self._start = 0.0
        self._latencies = []

    def record(self, label, wall, latencies=()):
        """Add a segment timed by the caller, then run the kernel."""
        self._segments.append((label, wall, list(latencies)))
        self._kernels.append(kernel_seconds())

    def begin(self, label):
        self._label = label
        self._latencies = []
        self._start = time.perf_counter()

    def after_report(self, latency):
        """Between reports: close the segment once it holds SEGMENT_S of work."""
        self._latencies.append(latency)
        if time.perf_counter() - self._start >= SEGMENT_S:
            self.end()
            self._start = time.perf_counter()

    def end(self):
        wall = time.perf_counter() - self._start
        self.record(self._label, wall, self._latencies)
        self._latencies = []

    def results(self):
        """(label -> (calibrated, raw) wall summed over its segments,
        calibrated report latencies in the order recorded)."""
        walls = {}
        latencies = []
        for i, (label, wall, lats) in enumerate(self._segments):
            factor = REF_S / statistics.median(self._kernels[max(0, i - 1) : i + 3])
            cal, raw = walls.get(label, (0.0, 0.0))
            walls[label] = (cal + wall * factor, raw + wall)
            latencies.extend(x * factor for x in lats)
        return walls, latencies
