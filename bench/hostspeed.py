"""The host's speed during a run, read from a fixed calibration loop.

The benchmark shares a few cores of a busy host, whose speed drifts by tens
of percent over seconds and minutes while nothing in the program changes.
The workloads therefore run `HostSpeed.sample` between their timed sections,
so that samples of a fixed piece of pure-Python work are spread over the
whole run, and `factor` turns their median into a host-speed factor: a host
time multiplied by it is the time the same work would have taken at the
reference speed. The loop is the benchmark's own code and never calls the
package, so no change to the program moves it.

The loop's time swings further than the program's between the host's fast
and slow phases, so the factor is the loop's speed-up raised to
`SENSITIVITY`, not the speed-up itself. The exponent is the slope of log
pass time against log median loop time, fitted over runs of all three
workloads on the reference host (it came out between 0.6 and 0.8 for each).
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
import statistics
from array import array
from time import perf_counter

import numpy as np

# median time of one calibration sample on the reference host (2-vCPU
# Intel Xeon VM, Python 3.11), taken while the host was quiet
REFERENCE_S = 1.3e-3
SENSITIVITY = 0.65
SAMPLES_PER_CALL = 2
CAL_EVENTS = 1200  # events of the calibration loop's scalar part
CAL_SMALL = 100  # rounds of its tiny-numpy part


def calibration_loop() -> float:
    """Fixed work of the two kinds the package spends its time on.

    First a scalar event loop like the simulator's (seeded uniforms,
    exponential gaps, a bisect lookup, a heap, an array of floats), then
    closed-form arithmetic on tiny numpy arrays like the analytic layer's.
    """
    rng = random.Random(12345)
    rnd, log = rng.random, math.log
    bounds, durations = (0.3, 0.7), (1.0, 2.0, 3.0)
    t = free = 0.0
    waits = array("d")
    heap: list[tuple[float, int]] = []
    for i in range(CAL_EVENTS):
        t += -log(1.0 - rnd()) * 1.2
        start = t if t > free else math.ceil(free)
        free = start + durations[bisect.bisect(bounds, rnd())]
        heapq.heappush(heap, (free, i))
        if len(heap) > 16:
            heapq.heappop(heap)
        waits.append(free - t)
    acc = sum(waits)
    a = np.linspace(0.1, 1.0, 3)
    for _ in range(CAL_SMALL):
        p = a / a.sum()
        m1, m2 = float(np.dot(p, a)), float(np.dot(p, a * a))
        acc += m2 / (2.0 * m1) + math.sqrt(m2)
    return acc


class HostSpeed:
    """Calibration samples of one run, and the time they took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # host seconds spent sampling, to leave out of timings

    def sample(self, k: int = SAMPLES_PER_CALL) -> None:
        """Times `k` calibration loops after an untimed one, which brings
        the loop's code and data back into the caches the program used."""
        t_start = perf_counter()
        calibration_loop()
        for _ in range(k):
            t0 = perf_counter()
            calibration_loop()
            self.samples.append(perf_counter() - t0)
        self.spent += perf_counter() - t_start

    def mark(self) -> tuple[int, float]:
        """Where the samples and the sampling time stand now."""
        return len(self.samples), self.spent

    def factor(self, since: tuple[int, float] = (0, 0.0)) -> float:
        """(REFERENCE_S over the median sample taken after `since`) to the
        power SENSITIVITY; NaN when none was taken."""
        window = self.samples[since[0]:]
        if not window:
            return math.nan
        return (REFERENCE_S / statistics.median(window)) ** SENSITIVITY
