"""Machine-speed calibration for a shared host.

The CPU speed this benchmark sees drifts by up to 2x within seconds,
because other tenants share the host (perfbench/README.md).  The
benchmark times a fixed interpreter loop next to each measurement and
scales the measurement to the speed at which that loop takes REF_NS.
"""

import heapq
import signal
import time

ITERS = 6000
REF_NS = 1_000_000


def _body(n):
    d, heap, acc = {}, [], 1.0
    for i in range(n):
        k = (i * 7) & 127
        d[k] = d.get(k, 0) + 1
        acc = acc * 0.999999 + 1e-9
        if i & 7 == 0:
            heapq.heappush(heap, (k, i))
    return acc


def calibrate():
    """Best of five timings of the calibration loop, in ns."""
    best = None
    for _ in range(5):
        t0 = time.perf_counter_ns()
        _body(ITERS)
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


class Sampler:
    """Calibrates every ``period`` seconds from a timer signal, for
    operations too long to calibrate between.  The handler runs in the
    measured thread, on its CPU; ``spent_between`` gives the time it took
    so callers can subtract it from what they measured."""

    def __init__(self, period):
        self.period = period
        self.samples = []  # (start ns, calibration ns, handler ns)
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        cal = calibrate()
        self.samples.append((t0, cal, time.perf_counter_ns() - t0))

    def __enter__(self):
        if self.period:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)

    def between(self, t0, t1):
        """(calibrations, handler ns) of the samples taken in [t0, t1]."""
        inside = [s for s in self.samples if t0 <= s[0] <= t1]
        return [s[1] for s in inside], sum(s[2] for s in inside)
