"""Host speed, sampled by a timer signal while the benchmark runs.

On a shared VM the host's speed drifts by up to 2x, and it flips between
fast and slow within a second as well as over minutes. The program's CPU
time drifts with it, so neither wall nor CPU time of one run is
comparable with another run's. So every PERIOD_S seconds a timer signal
interrupts the program and runs a fixed reference loop. The loop does
what the program spends most of its time on (small numpy calls on a few
floats, driven by Python) but calls no code of the program, so a change
to the program cannot move it. A time interval then has the sampling
taken out and is rescaled by REFERENCE_S / (loop time) over the samples
around it: it reads as the seconds the work would take on a host where
the loop takes REFERENCE_S.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left

import numpy as np

# A round figure inside the loop's measured range, 1.5 to 3.5 ms, on a
# shared 2-core Intel Xeon VM (Python 3.11, numpy 2.4).
REFERENCE_S = 0.002
# About 2% of the time goes to sampling. Short, frequent samples follow the
# host's fast flips: a regime batch (about 0.1 s) has 2 to 3 samples around
# it, an exact batch (about 2.5 s) over 20.
PERIOD_S = 0.1

_GAINS = np.random.default_rng(1).random((4, 4)) + 0.1


def reference_loop_s() -> float:
    """Wall time of one run of the reference loop."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(200):
        g = _GAINS[i & 3]
        inv = 1.0 / g
        order = np.argsort(inv)
        level = (1.0 + inv[order[:2]].sum()) / 2
        powers = np.maximum(level - inv, 0.0)
        acc += float(np.log2(1.0 + powers * g).sum())
    return time.perf_counter() - start


class Sampler:
    """Runs the reference loop every PERIOD_S seconds, from SIGALRM, until stopped."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.speeds: list[float] = []  # REFERENCE_S / loop time
        reference_loop_s()  # the first run pays numpy's first-call costs
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def sample(self) -> None:
        start = time.perf_counter()
        self.speeds.append(REFERENCE_S / reference_loop_s())
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()  # every interval measured so far has a sample after it

    def rescale(self, start: float, end: float) -> tuple[float, float]:
        """Seconds from start to end without sampling, and their factor to reference seconds.

        The factor is the mean speed of the samples from one period
        before start to one period after end.
        """
        first, last = bisect_left(self.starts, start), bisect_left(self.starts, end)
        net = (end - start) - sum(self.ends[i] - self.starts[i] for i in range(first, last))
        lo = bisect_left(self.starts, start - PERIOD_S)
        hi = max(bisect_left(self.starts, end + PERIOD_S), lo + 1)
        around = self.speeds[lo:hi] or self.speeds[-1:]
        return net, sum(around) / len(around)
