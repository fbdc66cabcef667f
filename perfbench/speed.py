"""Timings adjusted for the speed of a shared host.

On a shared host the same computation runs tens of percent faster or slower
from one second to the next, and CPU time moves with wall time, so the
slowdown is in the processor, not in the scheduler.  A run-to-run spread that
large hides any change to the program.  So while the timed work runs, a
Speedometer measures the host's speed on the same core at the same moments:
a process-CPU-time interval timer (SIGPROF) interrupts the work every
``interval`` seconds of CPU time, and the handler times ``kernel()``, a fixed
piece of pure-Python integer and dict work that does not depend on the
program.  It runs the kernel once to warm the caches the program's work has
just evicted and times the second run, so that the sample measures the
processor rather than how the program left its caches.  A span is then
reported in reference seconds: its wall time minus the sampling inside it,
scaled by the mean of ``REF_KERNEL_S / kernel time`` over the samples taken
within it.  A reference second is a second on a host where a warm
``kernel()`` takes ``REF_KERNEL_S``; the constant only sets the scale.

Each sample stands for an equal slice of CPU time, and the work done in a
slice is proportional to the speed the sample measured, so the mean of the
speed ratios, not their median, converts the span.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_KERNEL_S = 0.00025  # a warm kernel() on the reference host
MIN_SAMPLES = 3  # a span with fewer inside borrows the nearest ones
_MERSENNE = 2**521 - 1


def kernel() -> int:
    """Fixed work: a loop of small-integer, big-integer and dict operations."""
    acc, big, table = 0, 3**400, {}
    for i in range(400):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = acc
        big = (big * 7 + i) % _MERSENNE
    return acc ^ (big & 0xFFFF)


class Speedometer:
    """Samples the host's speed while it is entered; converts spans."""

    def __init__(self, interval: float):
        self.interval = interval
        self.starts: list = []  # perf_counter() at each sample, increasing
        self.kernel_s: list = []  # warm kernel() time of each sample
        self.spent_s: list = []  # time each sample took from the work
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        warm = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.kernel_s.append(end - warm)
        self.spent_s.append(end - start)

    def adjust(self, start: float, end: float) -> float:
        """Reference seconds of the span from ``start`` to ``end`` (perf_counter)."""
        if not self.starts:
            raise ValueError("no speed samples were taken")
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.kernel_s[lo:hi]
        picked = inside
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            near = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - middle))
            picked = [self.kernel_s[i] for i in near[:MIN_SAMPLES]]
        work = (end - start) - sum(self.spent_s[lo:hi])
        return work * statistics.fmean(REF_KERNEL_S / s for s in picked)
