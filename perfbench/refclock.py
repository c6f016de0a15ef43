"""A reference clock: wall time rescaled by the host's measured speed.

The benchmark runs on a few cores of a shared host whose single-core
speed drifts by more than half over tens of seconds, as other tenants
come and go.  Raw wall times of the same code then spread wider between
runs than any useful regression bound.  So the benchmark times a fixed
interpreter kernel, owned by the benchmark and independent of the
program, throughout every timed region, and reports each duration in
*reference seconds*: wall seconds multiplied by how much faster or
slower than :data:`REF_KERNEL_S` the kernel ran at that moment.

* :class:`Sampler` runs the kernel from a ``SIGALRM`` handler every
  :data:`PERIOD_S` seconds of wall time, in the benchmark's own (single)
  thread, costing about half a percent of the run.
* :class:`RefClock` turns the samples into a piecewise-constant speed
  factor (each sample smoothed by the median of its neighbours) and
  maps ``time.perf_counter()`` readings to reference seconds, so every
  span keeps its nesting and its self time on the new clock.
* :func:`bracket` measures the kernel right before and after a region
  it cannot run beside (a set-up child process).

A change to the program does not change the kernel, so a program that
gets faster or slower reads faster or slower by the same share.  What
the clock cannot see is a change that slows every Python frame alike
(a process-wide trace or profile hook, say): the kernel slows too.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List, Sequence, Tuple

#: kernel duration, in seconds, that defines one reference second (a
#: fixed constant, near the kernel's time on a 2-CPU Xeon host)
REF_KERNEL_S = 0.0015
#: wall seconds between kernel samples
PERIOD_S = 0.25
#: samples on each side of a sample that smooth it (a running median)
SMOOTH = 2


class _Event:
    __slots__ = ("t", "rank", "size")

    def __init__(self, t: float, rank: int, size: int) -> None:
        self.t, self.rank, self.size = t, rank, size


def kernel(n: int = 1200) -> int:
    """A fixed slice of interpreter work (attribute and dict access,
    small allocations, heap operations), about 1.5 ms on the reference
    host."""
    heap: List[Tuple[float, int, _Event]] = []
    sizes = {}
    for i in range(32):
        heapq.heappush(heap, (i * 0.5, i, _Event(i * 0.5, i % 16, 64)))
    for i in range(n):
        t, seq, ev = heapq.heappop(heap)
        sizes[ev.rank] = sizes.get(ev.rank, 0) + ev.size + (i * 7 % 13)
        heapq.heappush(heap, (t + 1.25 + (i % 7) * 0.1, seq + 32,
                              _Event(t + 1.0, (ev.rank + 1) % 16,
                                     ev.size + 8)))
    return len(sizes)


def time_kernel() -> Tuple[float, float]:
    """Run the kernel once; returns (midpoint, duration) in wall time."""
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


class Sampler:
    """Kernel samples taken every :data:`PERIOD_S` inside ``with``."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(time_kernel())

    @contextmanager
    def running(self) -> Iterator["Sampler"]:
        """Sample from a SIGALRM timer, and once on entry and on exit."""
        old = signal.signal(signal.SIGALRM, self._tick)
        self.samples.append(time_kernel())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            self.samples.append(time_kernel())


def bracket(n: int = 31) -> float:
    """Median kernel time over ``n`` back-to-back runs (about 50 ms)."""
    return statistics.median(time_kernel()[1] for _ in range(n))


def smooth(durations: Sequence[float], k: int = SMOOTH) -> List[float]:
    """Each value replaced by the median of it and ``k`` each side."""
    n = len(durations)
    return [statistics.median(durations[max(0, i - k):i + k + 1])
            for i in range(n)]


class RefClock:
    """Maps ``perf_counter`` readings to reference seconds.

    Between the midpoints of consecutive samples the speed factor is
    that of the nearer sample, ``REF_KERNEL_S / smoothed duration``;
    before the first and after the last sample it is theirs.
    """

    def __init__(self, samples: Sequence[Tuple[float, float]]) -> None:
        if not samples:
            raise ValueError("a reference clock needs at least one sample")
        samples = sorted(samples)
        times = [t for t, _ in samples]
        self.factors = [REF_KERNEL_S / d
                        for d in smooth([d for _, d in samples])]
        #: wall times where the factor changes, and the reference time
        #: reached at each (relative to the first)
        self.edges = [(a + b) / 2 for a, b in zip(times, times[1:])]
        self.at_edge = [0.0]
        for i in range(1, len(self.edges)):
            self.at_edge.append(self.at_edge[-1] + self.factors[i]
                                * (self.edges[i] - self.edges[i - 1]))

    def __call__(self, t: float) -> float:
        """Reference time of wall time ``t`` (an arbitrary origin)."""
        if not self.edges:
            return self.factors[0] * t
        i = bisect.bisect_right(self.edges, t)
        if i == 0:
            return self.factors[0] * (t - self.edges[0])
        return (self.at_edge[i - 1]
                + self.factors[i] * (t - self.edges[i - 1]))

    def slowdown(self) -> float:
        """Median wall seconds per reference second over the samples."""
        return statistics.median(1.0 / f for f in self.factors)
