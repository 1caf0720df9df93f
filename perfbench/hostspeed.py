"""The host's pace, sampled while the program runs.

This machine is a few cores of a shared host, and the host's speed
drifts: the same work can take twice as long a few seconds later, in
CPU time as well as in wall time.  Runs minutes apart then differ by
the host, not by the program.  So the measured process also times a
small fixed kernel that uses no fredtw code: a timer signal runs it
every INTERVAL_S, on the same core and in the same thread, in the
middle of whatever the program is doing.  The mean of those kernel
times over an interval is the host's pace during it, and

    time at the reference pace = (wall time - time in the kernel)
                                 * REF_PACE_S / pace

A faster or slower program moves this exactly as it moves the wall
time; a faster or slower host moves the wall time and the pace alike,
and cancels.  The kernel is made of the work that dominates fredtw's
time: short numpy calls on small arrays, as in the Airy engine's
double-double series.  A kernel that also held scalar Python loops,
transcendentals on large arrays, large-array streams, random gathers or
dict updates tracked the program's slow-downs less well (see the
README).
"""

import signal
import time

import numpy as np

# About the kernel's time, in seconds, on the machine the README's
# figures come from while fredtw runs; a constant, so it only sets the
# unit.
REF_PACE_S = 0.0016
INTERVAL_S = 0.1

_SMALL = np.linspace(-1.0, 1.0, 384)
_perf = time.perf_counter


def _kernel():
    """Double-double style updates of a 384-point array: many short
    numpy calls, like the Airy engine's series on a quadrature grid."""
    hi, lo = _SMALL.copy(), np.zeros_like(_SMALL)
    for k in range(120):
        s = hi + 0.5 * hi
        bb = s - hi
        e = (hi - (s - bb)) + (0.5 * hi - bb)
        hi, lo = s * 0.6, np.where(s > 0.0, lo + e, lo - e)
    return float(hi[0] + lo[0])


class Sampler:
    """Runs the kernel on a timer and keeps (end time, duration) of each
    run; window() gives the pace and the kernel's share of an interval."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t = _perf()
        _kernel()
        end = _perf()
        self.samples.append((end, end - t))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, t0, t1):
        """(pace, seconds spent in the kernel) over [t0, t1]; the pace is
        the mean kernel time of the runs that ended in the window, or of
        the nearest run when none did."""
        inside = [d for end, d in self.samples if t0 <= end <= t1]
        if not inside:
            if not self.samples:
                self.samples.append((_perf(), _timed_kernel()))
            nearest = min(self.samples, key=lambda s: abs(s[0] - t1))
            return nearest[1], 0.0
        return sum(inside) / len(inside), sum(inside)


def _timed_kernel():
    t = _perf()
    _kernel()
    return _perf() - t


if __name__ == "__main__":
    _kernel()
    print([round(_timed_kernel(), 5) for _ in range(10)])
