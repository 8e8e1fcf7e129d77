"""Time measured at a fixed reference speed of the machine.

The 2-vCPU VM this benchmark was tuned on runs the same Python code at
speeds up to ~40% apart from one second to the next, and repeated runs
of one workload spread by 15-40% in raw seconds.  A `SpeedMeter` times a
fixed probe loop before an operation, every PERIOD seconds while it runs
(on SIGALRM, in the main thread) and after it.  The operation's own time,
probe time excluded, is scaled by the mean of REFERENCE / probe time:
the time the operation would take where the probe takes REFERENCE
seconds.  An operation too short to hold WINDOW probes is scaled by the
last WINDOW probes, its own and those of the operations just before it.
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter

PERIOD = 0.04
REFERENCE = 0.001  # seconds per probe loop; ~1.1 ms on the tuning VM
WINDOW = 8


def _probe_loop():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        seen[i * 7919 % 1031] = (i, i & 0xFF)
    return acc


class SpeedMeter:
    """Keeps the recent probes; `measure()` times one operation."""

    def __init__(self):
        self.recent = deque(maxlen=WINDOW)

    def measure(self):
        return Measurement(self)


class Measurement:
    """Context manager around one operation; read `seconds` and `raw` after exit."""

    def __init__(self, meter):
        self.meter = meter
        self.probes = []
        self.inside = 0.0  # probe time within the timed interval
        self.raw = 0.0
        self.seconds = 0.0

    def _probe(self, *_):
        start = perf_counter()
        _probe_loop()
        took = perf_counter() - start
        self.probes.append(took)
        return took

    def _on_alarm(self, *_):
        self.inside += self._probe()

    def __enter__(self):
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.raw = perf_counter() - self._start - self.inside
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        self.meter.recent.extend(self.probes)
        sample = self.probes if len(self.probes) >= WINDOW else self.meter.recent
        self.seconds = self.raw * statistics.fmean(REFERENCE / p for p in sample)
        return False
