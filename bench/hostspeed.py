"""Host-speed calibration: a fixed pure-Python kernel timed around every part.

On a shared 2-vCPU KVM guest (Intel Xeon, Python 3.11) the host's speed
switches between states about 1.7x apart, over seconds to tens of seconds,
and CPU time slows with wall time.  Over 90 s of alternating this kernel
with a fixed 1000-slot simulation, 3-second medians of the simulation's
time ranged over 1.6x while its ratio to the kernel's time stayed within
+-6 %.  The benchmark therefore times the kernel between all timed
intervals and scales each interval's host seconds by ``NOMINAL_S / kernel
seconds``, the kernel's seconds being the median of the samples around the
interval: its times read as host seconds at the speed where the kernel
takes ``NOMINAL_S``.  The kernel does not touch cellsched, so a change to the
package moves the scaled times and leaves the kernel alone.
"""

from __future__ import annotations

import random
import statistics
import time

#: The kernel's time on the fast state of the host above (its fastest
#: repeats, rounded); it fixes the unit of every scaled time.
NOMINAL_S = 0.0015
#: An interval's host speed is the median of the kernel samples taken at the
#: WINDOW interval boundaries on either side of it, so that one disturbed
#: sample does not skew it.
WINDOW = 5


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def kernel() -> int:
    """Fixed mixed work: object creation, dict updates, float draws, an argmax."""
    rng = random.Random(7)
    table = {}
    best = None
    for i in range(1200):
        table[i & 31] = _Item(i, rng.random())
        best = None
        for item in table.values():
            if best is None or item.value > best.value:
                best = item
    return best.key


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples taken between timed intervals, and each interval's scale."""

    def __init__(self):
        self.samples = [kernel_seconds()]

    def mark(self) -> int:
        """Sample the kernel after an interval; returns that interval's index."""
        self.samples.append(kernel_seconds())
        return len(self.samples) - 2

    def scales(self) -> list[float]:
        """Factor scaling each interval's host seconds to the nominal speed."""
        s = self.samples
        return [
            NOMINAL_S / statistics.median(s[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
            for i in range(len(s) - 1)
        ]
