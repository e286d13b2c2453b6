"""Reference clock: the host's speed, sampled while a pass runs.

The benchmark shares a 2-vCPU virtual machine with other tenants of its
host.  Their load slows this process by up to 60-70%, in phases that last
from a few seconds to minutes, so a raw time mostly says which phase a run
fell into.  A fixed interpreter loop (`kernel`, about 40 us) slows with the
same phases.  It runs every INTERVAL_S from a SIGALRM handler, and each
query's time is scaled by REF_KERNEL_S over the loop's median time around
that query: the result is the query's time at the reference speed, where
the loop takes REF_KERNEL_S.  REF_KERNEL_S is the loop's time on the quiet
host (Intel Xeon, model 207, 2 vCPUs under KVM), so on that host a reported
time reads as wall-clock time.

The loop uses no program code, so a change to the program cannot move it.
Time spent in the handler is subtracted from the query that it interrupts.
"""

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.005
REF_KERNEL_S = 40e-6
WINDOW_S = 0.25     # samples this far before and after a query also count

clock = time.perf_counter


def kernel():
    total = 0
    for i in range(800):
        total += i * i
    return total


class RefClock:
    def __init__(self):
        self.starts = []        # sample start times, increasing
        self.took = []          # the loop's time at each sample
        self.handler_s = 0.0    # total time spent in the handler

    def _sample(self, signum, frame):
        t0 = clock()
        kernel()
        t1 = clock()
        self.starts.append(t0)
        self.took.append(t1 - t0)
        self.handler_s += clock() - t0

    def measure(self):
        """Take one sample outside the timer (between set-up probes)."""
        self._sample(None, None)

    def install(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self):
        """(time, handler time so far): a query's own time is the
        difference of the first minus the difference of the second."""
        return clock(), self.handler_s

    def scale(self, t0, t1):
        """REF_KERNEL_S over the loop's median time in [t0 - WINDOW_S,
        t1 + WINDOW_S]; 1.0 when no sample falls there."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo == hi:
            return 1.0
        return REF_KERNEL_S / statistics.median(self.took[lo:hi])

    def median(self):
        return statistics.median(self.took) if self.took else REF_KERNEL_S
