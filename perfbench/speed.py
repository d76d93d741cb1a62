"""Machine-speed probe, so that timings taken on a shared machine compare.

On a machine shared with other tenants the same work can take up to 1.8
times as long at some times as at others, in stretches of seconds to tens
of minutes, and CPU time stretches with wall time.  While a run measures, a fixed
calibration loop runs every ``INTERVAL`` seconds from a timer signal, in
the same thread as the work.  It does the two kinds of work the package
does: exact products of Gaussian rationals held as pairs of ``Fraction``,
and numpy evaluation with float formatting.  ``rescale`` turns a measured
interval into the time it would take at the speed where one loop takes
``NOMINAL`` seconds, from the mean loop time sampled in and around the
interval, after taking out the time the ticks themselves spent inside it.
A loop that took over ``PREEMPTED`` times the median of those samples was
interrupted rather than slowed, and is left out of the mean.
The garbage collector is off during a tick, so that a collection of the
package's heap is neither timed as a loop nor taken out as one.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

INTERVAL = 0.05        # seconds between calibration loops
WINDOW = 0.25          # seconds of samples used on each side of an interval
NOMINAL = 0.0005       # loop time, in seconds, that rescaled times assume
PREEMPTED = 3.0        # loops slower than this many medians are left out

_TERMS = [(Fraction(k, k + 1), Fraction(1, k + 2)) for k in range(8)]
_POINTS = 0.9 * np.exp(2j * np.pi * np.arange(48) / 48)


def calibration_loop():
    """A fixed amount of exact and of float work."""
    product = []
    for k in range(len(_TERMS)):
        re = im = Fraction(0)
        for j in range(k + 1):
            (a, b), (c, d) = _TERMS[j], _TERMS[k - j]
            re += a * c - b * d
            im += a * d + b * c
        product.append((re, im))
    values = _POINTS / (1 - _POINTS) ** 2
    text = " ".join(f"{v.real:.6f},{v.imag:.6f}" for v in values)
    return product, text


class SpeedProbe:
    """Context manager that samples the loop time while it is entered."""

    def __init__(self):
        self.starts: list[float] = []     # when each tick began
        self.durations: list[float] = []  # the timed loop of each tick
        self.costs: list[float] = []      # the whole tick, both loops
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            calibration_loop()  # untimed: brings its code and data into cache
            loop = time.perf_counter()
            calibration_loop()
            duration = time.perf_counter() - loop
        finally:
            if collecting:
                gc.enable()
        self.starts.append(start)
        self.durations.append(duration)
        self.costs.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, start: float, end: float) -> float:
        """Seconds [start, end] would take at nominal speed, ticks taken out."""
        if not self.starts:
            raise RuntimeError("the speed probe took no samples")
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, end + WINDOW)
        if hi == lo:  # no sample near: take the nearest one
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        inside = sum(c for s, c in zip(self.starts[lo:hi], self.costs[lo:hi])
                     if start <= s <= end)
        window = self.durations[lo:hi]
        typical = statistics.median(window)
        kept = [d for d in window if d <= PREEMPTED * typical]
        loop = sum(kept) / len(kept)
        return (end - start - inside) * NOMINAL / loop
