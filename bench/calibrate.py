"""Host-speed probe: a fixed piece of work timed after every measured call.

The benchmark runs on shared hosts whose speed drifts by a third or more,
from one second to the next and for minutes at a time, with CPU time tracking
wall time, so the same code reads differently from one run to the next.  The
probe's time follows that drift, and the code under test does not move it:
it lives in the benchmark and does the same work whatever hfon did before.
A call's wall time scaled by NOMINAL_S over the median of the probes taken
around it reads as it would on a host where the probe takes NOMINAL_S.

The probe mixes the three kinds of work the workloads do: Python object
churn, as in CSV parsing and the per-group loops; numpy arithmetic on
arrays that do not fit in a core's cache, as in the kernel; and faulting
in fresh pages, which the 1000-agent kernel does for a third of its time.
"""

from __future__ import annotations

import gc
import mmap
import statistics
from time import perf_counter

import numpy as np

# the probe's median over 15 runs of the three workloads on a shared 2-vCPU
# Intel Xeon host (2.0 GHz), Python 3.11.7, numpy 2.4.6
NOMINAL_S = 0.030
# the probes that scale a call are those taken within its own duration, and
# at least this long, before its start and after its end: enough probes to
# damp their own noise, near enough to follow the host
MIN_WINDOW_S = 1.0


class SpeedProbe:
    """Times a fixed mix of Python, numpy and page-fault work; scales wall times to NOMINAL_S."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._strings = [repr(x) for x in (rng.random(5000) * 20).tolist()]
        self._points = rng.random(512) * 20
        # preallocated, so the probe does the same work whatever the program
        # did to the allocator before it
        self._diff = np.empty((512, 512))
        self._mask = np.empty((512, 512), dtype=bool)
        self.times: list[float] = []  # perf_counter at the middle of each probe
        self.samples: list[float] = []  # its duration

    def __call__(self) -> None:
        # a garbage collection pass landing in the probe, which depends on
        # what the caller allocated before, would spread it by half
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            for _ in range(3):
                rows = [[s, s, s] for s in self._strings]
                sum(float(row[0]) for row in rows)
            for _ in range(12):
                np.subtract.outer(self._points, self._points, out=self._diff)
                np.abs(self._diff, out=self._diff)
                np.less_equal(self._diff, 0.5, out=self._mask)
                np.count_nonzero(self._mask)
            for _ in range(4):
                with mmap.mmap(-1, 2 << 20) as fresh:
                    pages = np.frombuffer(fresh, dtype=np.uint8)
                    pages[::4096] = 1
                    del pages
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)

    def scaled(self, start: float, wall_s: float) -> float:
        """The wall time of a call that began at perf_counter `start`, as it would
        read on a host where the probe takes NOMINAL_S."""
        reach = max(wall_s, MIN_WINDOW_S)
        near = [d for t, d in zip(self.times, self.samples) if start - reach <= t <= start + wall_s + reach]
        return wall_s * NOMINAL_S / statistics.median(near)
