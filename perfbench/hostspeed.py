"""Host-speed normalisation for a noisy shared host.

On a small virtual machine the same code can run at very different speeds
from one minute to the next, as neighbours come and go.  A fixed
calibration burst, nothing from ``repro``, is timed at intervals during
each measurement, on the same thread as the work.  Like the workloads it
mixes interpreted Python (integer arithmetic, dict stores) with small
numpy kernels (a sort, row-wise unique, elementwise arithmetic), which
slow down by different factors on a busy host.  A measured time is then
rescaled to the reference speed at which one burst takes
:data:`REF_BURST_S`:

    normalised = (wall - time spent in bursts) * REF_BURST_S / mean burst

A change to the program moves the numerator and not the burst, so gains
and regressions show; a slower host moves both and cancels.  The raw
times are kept next to the normalised ones in each result envelope.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time

import numpy as np

#: Seconds one calibration burst takes at the reference speed.
REF_BURST_S = 0.003
#: Bursts within this many seconds of a window also inform its speed.
MARGIN_S = 0.5

_VALUES = np.random.default_rng(0).random(20000)
_ROWS = np.random.default_rng(1).integers(0, 50, (2000, 3)).astype(float)


def burst() -> float:
    """Run one calibration burst; return its duration in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(15000):
        acc += i * i % 7
    table = {}
    for i in range(5000):
        table[i % 1000] = i
    np.sort(_VALUES)
    np.unique(_ROWS, axis=0)
    _VALUES * 2.5 + 1.0
    return time.perf_counter() - start


# The first burst imports numpy.ma (np.unique with an axis loads it).  Pay
# that now: a handler that imports while the main thread is inside an
# import corrupts importlib's per-thread lock bookkeeping (KeyError).
burst()


class Sampler:
    """Times a burst every *interval* seconds from a SIGALRM handler.

    Use as a context manager around the timed region of a single-threaded
    workload; the handler runs between bytecodes of the main thread.
    """

    def __init__(self, interval: float = 0.15):
        self.interval = interval
        self.bursts: list[tuple[float, float]] = []     # (start, duration)
        self._previous = None
        self._starts = None     # sorted burst starts and prefix sums of
        self._sums = None       # durations, built on first use

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.bursts.append((start, burst()))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def top_up(self, count: int = 8) -> None:
        """Time *count* more bursts now (a short window may hold none)."""
        self.bursts += [(time.perf_counter(), burst()) for _ in range(count)]

    def normalise(self, start: float, end: float) -> float:
        """Seconds the window [start, end) would take at reference speed."""
        inside = [d for t, d in self.bursts if start <= t < end]
        work = (end - start) - sum(inside)
        return work / self.slowness(start, end)

    def slowness(self, start: float, end: float) -> float:
        """Mean burst near [start, end) over the reference burst."""
        if self._starts is None or len(self._starts) != len(self.bursts):
            self.bursts.sort()
            self._starts = [t for t, _ in self.bursts]
            self._sums = list(itertools.accumulate(
                (d for _, d in self.bursts), initial=0.0))
        lo = bisect.bisect_left(self._starts, start - MARGIN_S)
        hi = bisect.bisect_left(self._starts, end + MARGIN_S)
        if hi == lo:
            # no burst close by: fall back on the nearest one
            lo = min(max(lo - 1, 0), len(self._starts) - 1)
            hi = lo + 1
        return (self._sums[hi] - self._sums[lo]) / (hi - lo) / REF_BURST_S
