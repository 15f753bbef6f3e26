"""Machine-speed probe for the end-to-end times.

The host's CPU speed drifts by tens of percent within seconds, so raw wall
times of identical work spread too widely to compare two commits. Every
timed interval is therefore paired with runs of a fixed probe loop, and the
interval is reported as if the probe took exactly PROBE_REF_S. The probe is
benchmark code, so no change to the program can move it.
"""

import cmath
import signal
import statistics
import time

import numpy as np

PROBE_REF_S = 1e-3
PROBE_SHARE = 0.05
PROBE_PERIOD_S = 0.1
_PROBE_BP = 1.3 * np.exp(2j * np.pi * np.arange(6) / 6)


def probe():
    """Fixed scalar continuation loop: the mix of interpreter work and tiny
    NumPy calls that dominates the library's hot paths."""
    y, pos = 1.0 + 0j, 0.1 + 0.2j
    for _ in range(200):
        nxt = pos + 0.001
        y = y * cmath.sqrt(complex(np.prod((nxt - _PROBE_BP)
                                           / (pos - _PROBE_BP))))
        pos = nxt
    return y


def burst(seconds, clock=time.perf_counter):
    """Probe times over at least ``seconds``, and at least one probe."""
    times = []
    start = clock()
    while not times or clock() - start < seconds:
        t0 = clock()
        probe()
        times.append(clock() - t0)
    return times


class SpeedProbe:
    """Scales the in-process timed intervals of one run.

    While an interval runs, a SIGALRM handler runs the probe every
    PROBE_PERIOD_S, and its time is taken out of the interval. After every
    interval a burst runs for PROBE_SHARE of it (at most PROBE_PERIOD_S).
    The interval's speed is the median probe time over the bursts before and
    after it and the probes inside it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = []
        self._inside = []
        self.before = self._burst(0.0)

    def _burst(self, seconds):
        times = burst(seconds, self.clock)
        self.samples.extend(times)
        return times

    def _probe_inside(self, signum, frame):
        t0 = self.clock()
        probe()
        self._inside.append(self.clock() - t0)

    def timed(self, in_process, fn, *args):
        """Run fn(*args): (result, raw seconds without the probes run
        inside, the same scaled to the reference speed). Work done in a
        child process is not scaled: its time moves with the probe's by a
        power of about 0.6 only, and probes would not pause it."""
        if not in_process:
            t0 = self.clock()
            result = fn(*args)
            raw = self.clock() - t0
            return result, raw, raw
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._probe_inside)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t0 = self.clock()
        try:
            result = fn(*args)
        finally:
            elapsed = self.clock() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - sum(self._inside)
        self.samples.extend(self._inside)
        after = self._burst(min(PROBE_SHARE * raw, PROBE_PERIOD_S))
        speed = statistics.median(self.before + self._inside + after)
        self.before = after
        return result, raw, raw * PROBE_REF_S / speed
