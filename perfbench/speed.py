"""Machine-speed calibration for the timed phases.

On a shared machine the same code on the same inputs can run twice as
fast in one minute as in another, and switches between a fast and a slow
state many times a second.  So every timed phase also times a fixed
reference loop, written here and using only the standard library, once per
20 ms of the phase, between operations (never inside one).  The mean
reference time tracks the speed the operations ran at, and each timing is
reported scaled to a machine on which the loop takes REFERENCE_MS:

    reported time = measured time * REFERENCE_MS / mean reference time

A change to the library cannot move the reference loop, so a real speed-up
or slow-down shows in full; a slower or busier machine moves both alike
and cancels out.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_MS = 0.600  # the loop's time on a quiet 2-core VM, Python 3.11
INTERVAL_S = 0.02  # one sample per this much of a phase: about 3% of it
MAX_CATCH_UP = 25


def reference_loop():
    """Fraction arithmetic, string slicing and dictionary updates, the mix
    the library's streams, analyzers and deciders spend their time on."""
    x = Fraction(0)
    counts = {}
    s = ""
    for i in range(1, 120):
        x += Fraction(i, i + 7)
        s = (s + str(i % 10))[-40:]
        counts[s[-3:]] = counts.get(s[-3:], 0) + 1
    return x, len(counts)


class SpeedMeter:
    """Times the reference loop once per INTERVAL_S of a phase."""

    def __init__(self):
        self.samples_s = []
        self.last = time.perf_counter()

    def sample(self, count=1):
        for _ in range(count):
            t0 = time.perf_counter()
            reference_loop()
            self.samples_s.append(time.perf_counter() - t0)
        self.last = time.perf_counter()

    def tick(self):
        """Catch up on the samples due since the last one: after a long
        operation, one for each INTERVAL_S it took (at most MAX_CATCH_UP)."""
        due = int((time.perf_counter() - self.last) / INTERVAL_S)
        if due:
            self.sample(min(due, MAX_CATCH_UP))

    @property
    def mean_ms(self):
        return sum(self.samples_s) / len(self.samples_s) * 1000

    def time_scale(self):
        """Factor that turns a measured time into one at the reference speed."""
        return REFERENCE_MS / self.mean_ms

    def summary(self):
        return {"reference_ms": REFERENCE_MS, "mean_ms": self.mean_ms,
                "samples": len(self.samples_s), "time_scale": self.time_scale()}
