"""Machine-speed probe: normalise timings for a machine whose speed drifts.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x over seconds to minutes, with CPU time equal to wall time: the host's
other tenants slow the vCPU, the process is not descheduled.  On the
2-vCPU Xeon VM the benchmark was defined on, a fixed pure-Python loop
timed in 15-second windows varied by 14% (quartile spread over median),
and over ten seeds the spread of each workload's raw op median was
0.21-0.23, close to the largest regression bound a timing may have (0.25).

So every timed region is also measured in machine-speed units.  A fixed
pure-Python kernel, independent of the package, is timed right before and
after each region and, from a ``SIGALRM`` handler, every
:data:`INTERVAL_S` inside it.  A region's normalised time is its wall time
minus the kernel time spent inside it, scaled by :data:`NOMINAL_S` over
the median kernel time in its window: the wall time the region would take
with the machine running the kernel at its nominal speed.  A change to the
package moves normalised times exactly as it moves wall times; drift of
the machine cancels to the extent the package and the kernel slow down
together.  In another ten-seed sweep on the same VM, with the machine
about 1.8x slow throughout, the op medians spread 0.05-0.08 normalised
against 0.08-0.13 raw in the same runs.

Signal handlers run between bytecodes of the main thread, so the kernel
never interleaves with package code in a way the package can observe: it
touches only its own objects and draws no random numbers.  In a traced run
the samples taken inside a span count toward its busy time (under 1%).
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, List, Tuple

#: Period of the in-region samples.
INTERVAL_S = 0.02

#: The kernel's time on the reference machine (the 2-vCPU Xeon VM above,
#: in a quiet phase).  Normalised times are wall times at this speed.
NOMINAL_S = 1.6e-4


def kernel() -> int:
    """Fixed interpreter-bound work: dict updates and integer arithmetic."""
    table = {}
    acc = 0
    for i in range(1000):
        table[i % 97] = table.get(i % 97, 0) + i
        acc += i * 7 % 13
    return acc


class SpeedProbe:
    """Times :func:`kernel` around and inside timed regions.

    Use as a context manager: entering installs the ``SIGALRM`` sampler,
    leaving removes it and restores the previous handler.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        started = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, body: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``body``; return its value, its wall seconds net of the
        samples taken inside it, and those seconds normalised."""
        self.sample()
        first = len(self.samples)
        started = time.perf_counter()
        value = body()
        wall = time.perf_counter() - started - sum(self.samples[first:])
        self.sample()
        window = self.samples[first - 1:]
        return value, wall, wall * NOMINAL_S / statistics.median(window)

    def slowdown(self) -> float:
        """Median kernel time over nominal, for the whole run so far."""
        return statistics.median(self.samples) / NOMINAL_S
