"""A clock that runs at the host's speed, for timing on shared machines.

On a host shared with other tenants the same pure-Python computation can
take twice as long from one second to the next, as neighbours come and go,
so wall time alone cannot hold a bound of a few percent.  ``HostClock``
samples the host's speed while the program runs: a profiling timer
interrupts the process every ``INTERVAL_S`` of CPU time and times a fixed
kernel of the two kinds of work folint does.  The kernel's time against
``REFERENCE_S`` gives the speed at that moment.

``elapsed(t0, t1)`` converts a wall interval into reference seconds: each
stretch of wall time counts in proportion to the speed measured at its start,
and the kernels' own time does not count.  At the reference speed one
reference second is one wall second.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.03
SMOOTHING = 5
# the kernel's time at the speed that defines a reference second
REFERENCE_S = 0.0006


def kernel():
    """Rational arithmetic, then a bare integer loop: folint's two kinds of
    work, which a busy host slows down by different factors."""
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i) * i
    n, d, hits = 1234567890123457, 1, 0
    while d < 4000:
        if n % d == 0:
            hits += 1
        d += 1
    return total, hits


class HostClock:
    """Start it before the work and stop it after; then ``elapsed`` converts
    wall spans from inside that window."""

    def __init__(self):
        self._probes = []
        self.starts = self.ends = self.speeds = self._work_at_end = None

    def _probe(self, signum, frame):
        start = perf_counter()
        kernel()
        # one append, so that a signal cannot leave half a probe behind
        self._probes.append((start, perf_counter()))

    def start(self):
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._probe(None, None)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        # one kernel run is noisy; the host's phases last seconds, so the
        # median over SMOOTHING neighbouring probes keeps them apart
        self.starts = [start for start, _ in self._probes]
        self.ends = [end for _, end in self._probes]
        times = [e - s for s, e in self._probes]
        half = SMOOTHING // 2
        self.speeds = [REFERENCE_S / statistics.median(times[max(i - half, 0):
                                                             i + half + 1])
                       for i in range(len(times))]
        work, self._work_at_end = 0.0, [0.0]
        for i in range(1, len(times)):
            work += self.speeds[i - 1] * (self.starts[i] - self.ends[i - 1])
            self._work_at_end.append(work)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def _work(self, t):
        """Reference seconds from the end of the first probe to wall time t:
        each gap between probes runs at the speed of the probe before it."""
        i = max(bisect_right(self.starts, t) - 1, 0)
        return self._work_at_end[i] + self.speeds[i] * max(t - self.ends[i],
                                                           0.0)

    def median_speed(self):
        """The host's median speed over the run, reference = 1."""
        return statistics.median(self.speeds)

    def elapsed(self, t0, t1):
        """Reference seconds spent between wall times t0 and t1."""
        return self._work(t1) - self._work(t0)
