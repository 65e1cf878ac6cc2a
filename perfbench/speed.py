"""The host's speed, sampled while a run measures.

On a shared 2-vCPU VM the same work ran at two speeds about 1.4-1.6x apart,
switching every few seconds, and drifted by up to 1.8x over tens of minutes,
so raw times of identical runs spread by more than a regression bound. While
a run measures, a timer signal interrupts it every PERIOD_S and times a fixed
probe: a small recursive bitmask search in pure Python, the kind of work
domlab's solvers do. REFERENCE_PROBE_S over a probe's time is the host's
speed at that moment, relative to a reference host on which the probe takes
REFERENCE_PROBE_S. A time measured over an interval, times the mean speed
sampled in it, is the time the same work takes on the reference host.

On that VM, in ten 55 s runs of each workload, pass times as measured
varied within a run by 12% (sweep) and 10% (hard-gamma), as mean
coefficients of variation, and the runs' mean pass times spread by 0.15 and
0.23 (IQR/median); scaled by the speed sampled during each pass, by 2.5% and
2.1% within a run, and 0.02 and 0.06 across runs. The probe takes about
0.15 ms, so sampling costs about 0.3% of a run.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.05
REFERENCE_PROBE_S = 1.5e-4

# closed neighbourhoods in a 16-vertex circulant graph
_NBHD = [(1 << v) | (1 << (v + 1) % 16) | (1 << (v - 1) % 16)
         | (1 << (v + 5) % 16) for v in range(16)]


def _extend(covered: int, start: int, left: int) -> int:
    n = 0
    for v in range(start, 16):
        c = covered | _NBHD[v]
        if left == 1:
            n += c.bit_count() >= 11
        else:
            n += _extend(c, v + 1, left - 1)
    return n


def probe() -> int:
    """Count the 3-vertex sets whose neighbourhoods cover 11 vertices."""
    return _extend(0, 0, 3)


class SpeedSampler:
    """Context manager: samples the host's speed every PERIOD_S while open."""

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.speeds.append(REFERENCE_PROBE_S / (t1 - t0))

    def __enter__(self) -> SpeedSampler:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Mean speed sampled in [start, end); without a sample there, the
        speed of the sample taken nearest to it."""
        i = bisect.bisect_left(self.times, start)
        j = bisect.bisect_left(self.times, end)
        if i < j:
            return statistics.fmean(self.speeds[i:j])
        if i == len(self.times) or (
                i > 0 and start - self.times[i - 1] < self.times[i] - end):
            i -= 1
        return self.speeds[i]
