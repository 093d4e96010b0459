"""Host-speed meter: a fixed reference kernel timed on a timer signal.

The benchmark host is shared, and its speed wanders by up to 2x over
seconds to minutes; CPU time tracks wall time, so the program runs
slower, it does not wait.  A wall time alone then measures the host as
much as the program.  The meter times a small fixed kernel (numpy on
short arrays, a tiny linear solve, float text round trips: the mix the
package spends its time on) every ``PERIOD_S`` seconds of wall time,
from a SIGALRM handler in the benchmark's own process, so on the same
core and at the same moments as the program.  The kernel runs twice per
sample and only the second run is timed, so the sample reflects the
host's speed rather than what the program left in the caches.

``relative_speed`` turns the samples taken during an interval into the
host's mean speed over it, relative to ``REFERENCE_KERNEL_S``; a wall
time multiplied by it is the time the same work would have taken on a
host where the kernel takes ``REFERENCE_KERNEL_S`` ("reference
seconds").  The kernel is benchmark code, so a change to the package
moves the reference seconds only through the package's own time.

The handler only runs at bytecode boundaries of the main thread, which
is where the benchmark calls the package; it touches no state of the
package and leaves its outputs bit for bit the same (every round's
files are compared with the first round's).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Seconds between samples; each costs two kernel runs, about 2% of the time.
PERIOD_S = 0.1

#: The kernel's time on the host the benchmark was written on, when idle
#: (medians of 40 warm runs: 0.86 to 0.92 ms; 1.2 to 1.7 ms when busy).
REFERENCE_KERNEL_S = 0.85e-3

_X = np.linspace(0.0, 1.0, 200)
_M = np.eye(4) * 3.0 + 0.1


def kernel() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    with np.errstate(all="ignore"):
        for i in range(30):
            y = np.exp(-_X * (1.0 + 0.01 * i)) * _X
            np.linalg.solve(_M, y[:4])
            text = ",".join(repr(float(v)) for v in y[:20])
            sum(float(v) for v in text.split(","))
    return time.perf_counter() - start


class SpeedMeter:
    """Samples the kernel on SIGALRM while active (a context manager)."""

    def __init__(self):
        self._samples: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:      # a signal that lands while the kernel runs is dropped
            return
        self._busy = True
        try:
            kernel()
            self._samples.append(kernel())
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedMeter":
        kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> list[float]:
        """Kernel times sampled since the last call."""
        samples, self._samples = self._samples, []
        return samples


def relative_speed(samples: list[float]) -> float:
    """Mean host speed over the samples' interval, relative to the
    reference (1.0 on the reference host, below 1 when slower)."""
    if not samples:
        raise ValueError("no speed samples: the interval was shorter than the meter's period")
    return statistics.fmean(REFERENCE_KERNEL_S / k for k in samples)
