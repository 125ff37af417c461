"""Machine-speed calibration for the measured processes.

The CPUs this benchmark was built on change speed by up to 1.6x for
seconds to minutes at a time (other tenants, boost states), which moves
raw wall times far more than any regression bound.  So times are reported
scaled by REF_KERNEL_S / (time of a fixed pure-Python kernel measured
around them, on the same CPU), i.e. at the kernel speed of the reference
machine state; the raw times are kept in each run's info line.  The kernel
does small tuple, list and dict work, like the package's inner loops.

- A long-running measured process pins itself to one CPU and runs a
  `Sampler` thread that times the kernel every PERIOD_S seconds.
- For short processes the client, pinned to the same CPU that its
  children inherit, times the kernel before each child (`Ticks`).
"""
from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

PERIOD_S = 0.02
# median kernel time on the reference machine (2-vCPU Xeon, Python 3.11)
REF_KERNEL_S = 400e-6
# samples this far either side of an interval count as "around" it
WINDOW_S = 0.1


def _kernel() -> int:
    d = {}
    for i in range(600):
        k = (i, i & 7)
        d[k] = [d.get((i - 1, (i - 1) & 7), 0), i]
    return len(d)


def pin_to_one_cpu() -> None:
    """Run this process, and the threads and children it starts, on a
    single CPU, so the kernel is timed on the CPU the work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """Times `_kernel` every PERIOD_S seconds until stopped."""

    def __init__(self):
        self.times: list[float] = []       # perf_counter at each sample
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        clock = time.perf_counter
        while True:
            t0 = clock()
            _kernel()
            t1 = clock()
            self.times.append(t0)
            self.durations.append(t1 - t0)
            if self._stop.wait(PERIOD_S):
                return

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """Scale factor to the reference speed for the interval [t0, t1]:
        REF_KERNEL_S over the median kernel time of the samples within
        WINDOW_S of it (of all samples, if none is that close)."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if lo >= hi:
            lo, hi = 0, len(self.times)
        return REF_KERNEL_S / statistics.median(self.durations[lo:hi])

    def scaled_total(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] at the reference speed: each stretch
        between samples is scaled by the factor around it."""
        total = 0.0
        edges = [t0] + [t for t in self.times if t0 < t < t1] + [t1]
        for a, b in zip(edges, edges[1:]):
            total += (b - a) * self.factor(a, b)
        return total


class Ticks:
    """Kernel times taken by the client before each short child."""

    def __init__(self):
        self.durations: list[float] = []

    def tick(self) -> None:
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            runs.append(time.perf_counter() - t0)
        self.durations.append(statistics.median(runs))

    def factors(self, span: int) -> list[float]:
        """Per child: REF_KERNEL_S over the median tick of the `span`
        children either side of it."""
        d = self.durations
        return [REF_KERNEL_S / statistics.median(d[max(0, i - span):
                                                  i + span + 1])
                for i in range(len(d))]
