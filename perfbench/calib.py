"""Host-speed gauge: a short reference loop timed all through the measurement.

The benchmark's host is a shared 2-vCPU VM whose speed drifts by up to half
within minutes: the same C1 episode took 49 ms in one run and 75 ms in
another, and over one 20 s stretch the one-second mean slowdown of a fixed
loop ranged from 1.15x to 1.58x. Medians and minima of wall time cannot
remove a drift that lasts longer than an operation (a sweep takes ~10 s).

So, while units run, a SIGALRM interval timer interrupts this process every
INTERVAL_S and runs two passes of a fixed stdlib-only loop in the main
thread, timing the second, warm one (about 2% of the time). Every bounded
time is then reported as

    measured seconds / mean pass time during the measurement * REF_PASS_S

i.e. in seconds of a host on which one pass takes REF_PASS_S. The loop does
64-bit integer mixing, list and dict updates and string formatting, like the
library, creates no GC-tracked objects, and does not change when the
library does. The raw wall times are reported next to the bounded ones.
"""
from __future__ import annotations

import bisect
import signal
import time

REF_PASS_S = 0.0002  # one pass on the quiet 2-vCPU reference host; fixes the scale
INTERVAL_S = 0.02
MIN_SAMPLES = 8

_MASK = (1 << 64) - 1
_COUNTS = [0] * 61
_SEEN = dict.fromkeys(range(61), 0)


def reference_pass() -> None:
    z = 0x2545F4914F6CDD1D
    for i in range(160):
        z = (z + 0x9E3779B97F4A7C15) & _MASK
        x = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        k = x % 61
        _COUNTS[k] += 1
        _SEEN[k] = _SEEN[k] + (x & 1)
        if i % 8 == 0:
            f"{x:x}:{k}".split(":")


class Gauge:
    """Times reference passes on a SIGALRM timer between start and stop."""

    def __init__(self):
        self.ends: list[float] = []
        self.passes: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        reference_pass()  # untimed: refills the caches the interrupted code evicted
        t0 = time.perf_counter()
        reference_pass()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.passes.append(t1 - t0)

    def start(self) -> Gauge:
        self._tick(None, None)  # so that a window is never empty
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> Gauge:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def pass_s(self, start: float, end: float) -> float:
        """Mean pass time over [start, end], widened back to MIN_SAMPLES passes."""
        hi = bisect.bisect_right(self.ends, end)
        hi = max(hi, 1)
        lo = min(bisect.bisect_left(self.ends, start), max(0, hi - MIN_SAMPLES))
        window = self.passes[lo:hi]
        return sum(window) / len(window)
