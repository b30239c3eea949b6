"""Scaling of measured times to a reference machine speed.

The recorded machine (README.md) shares its host with other tenants, and
its speed drifts by 20-60% over seconds to minutes. Two references track
it:

- In process, a fixed kernel that mixes what the library spends its time
  on, small numpy calls and pure-Python float loops. It never changes, so
  its run time measures the machine and not the code under test.
  KernelSampler runs it every 10 ms and scales timed work by REFERENCE_S
  over the kernel times measured around it.
- For child processes, a fresh `python -c "import numpy"`, which does the
  same kind of work as importing the package (unmarshalling bytecode and
  loading extension modules). A child is scaled by IMPORT_REFERENCE_S
  over the time of a reference child run next to it.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

# Kernel time on the recorded machine in a quiet period (README.md).
REFERENCE_S = 2.5e-4
# Wall time of a fresh `python -c "import numpy"` on the same machine.
IMPORT_REFERENCE_S = 0.17
IMPORT_REFERENCE_CODE = "import numpy"

_M = np.array([[4.0, 1.0, 0.5, 0.2], [1.0, 3.0, 0.3, 0.1],
               [0.5, 0.3, 2.0, 0.4], [0.2, 0.1, 0.4, 1.0]])


def kernel():
    """About 0.25 ms of small-array numpy and scalar Python work."""
    acc = 0.0
    for _ in range(12):
        a = np.array(_M, dtype=float)
        b = (a + a.T) / 2.0
        c = b @ b - np.eye(4)
        acc += float(np.linalg.norm(c)) + float(np.max(np.abs(c)))
        rows = [list(r) for r in c.tolist()]
        for p in range(3):
            for q in range(p + 1, 4):
                apq = rows[p][q] or 1e-300
                tau = (rows[q][q] - rows[p][p]) / (2.0 * apq)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                for k in range(4):
                    x, y = rows[k][p], rows[k][q]
                    rows[k][p] = cs * x - t * cs * y
                    rows[k][q] = t * cs * x + cs * y
        acc += sum(r[0] for r in rows)
    return acc


class KernelSampler:
    """Runs the kernel every `interval` seconds while active, so timed work
    is scaled by kernel runs that bracket it closely.

    With timer=True a SIGALRM timer runs it, for work too long to stop for
    the kernel (a selftest property takes up to a second). With
    timer=False the caller calls poll() between short pieces of work (api
    ops), so the kernel never runs inside one.

    scaled(a, b) is the time of the wall interval [a, b] spent outside the
    kernel, each slice between two kernel runs scaled by REFERENCE_S over
    their mean kernel time.
    """

    def __init__(self, interval=0.01, timer=True):
        self.interval = interval
        self.timer = timer
        self.starts = []         # start of each kernel run, in time order
        self.ends = []           # and its end
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def poll(self):
        """Run the kernel if `interval` has passed since it last ran."""
        if time.perf_counter() - self.ends[-1] >= self.interval:
            self._tick(None, None)

    def __enter__(self):
        self._tick(None, None)
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    @property
    def kernel_times(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def _slices(self, a, b):
        """(length, scale factor) of each stretch of [a, b] between kernel runs."""
        starts, ends = self.starts, self.ends
        k = max(bisect.bisect_right(ends, a) - 1, 0)
        while k + 1 < len(starts) and ends[k] < b:
            lo, hi = max(a, ends[k]), min(b, starts[k + 1])
            if hi > lo:
                mean = 0.5 * ((ends[k] - starts[k]) + (ends[k + 1] - starts[k + 1]))
                yield hi - lo, REFERENCE_S / mean
            k += 1

    def scaled(self, a, b):
        return sum(length * factor for length, factor in self._slices(a, b))

    def unscaled(self, a, b):
        """The wall time of [a, b] minus the kernel runs inside it."""
        return sum(length for length, _ in self._slices(a, b))
