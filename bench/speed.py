"""Reference seconds: wall time scaled by the machine's current speed.

On a shared machine the same code runs up to 1.6 times faster or slower
from one minute to the next.  A fixed loop of complex arithmetic, timed
right before and right after an operation, measures that speed.  The
operation's time in reference seconds is its wall time times
REFERENCE_S / (mean loop time): its wall time on a machine where the
loop takes REFERENCE_S.  The loop allocates no containers, so it never
starts the garbage collector and does not depend on the program's heap.
"""

import time

LOOP_STEPS = 20000
REFERENCE_S = 0.005


def loop_seconds():
    """Wall time of the fixed loop, now."""
    start = time.perf_counter()
    z = 0.5 + 0.5j
    total = 0.0
    for _ in range(LOOP_STEPS):
        z = (z * z + 0.25) / (abs(z) + 1.0)
        total += z.real
    return time.perf_counter() - start


class Stopwatch:
    """Times one stretch of work in wall and in reference seconds."""

    def __enter__(self):
        self.loop_s = loop_seconds()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.start
        self.loop_s = (self.loop_s + loop_seconds()) / 2
        self.reference_s = self.wall_s * REFERENCE_S / self.loop_s
