"""Host-speed correction of measured times.

On a shared host the same call runs at a fast speed or up to about 2.8x
slower, switching in stretches from milliseconds to minutes, and a whole
run can fall in a slow stretch. No statistic over the run's own passes
removes that. So the benchmark runs a fixed calibration loop next to every
timed interval and scales the interval by how long the loop took right
then:

    corrected = measured * REFERENCE_S / calibration

REFERENCE_S is the loop's time at the fast speed of the host the baseline
was measured on (2-vCPU Intel Xeon VM, Python 3.11.7), so corrected times
read as seconds at that speed. The loop does what the library's inner loops
do (Fraction arithmetic, dicts and sets keyed by tuples), so a slow stretch
slows both alike. A change to the library does not touch the loop, so its
effect shows in full.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0034


def _loop() -> Fraction:
    counts: dict[tuple[int, int], int] = {}
    seen: set[tuple[int, int]] = set()
    total = Fraction(0)
    for i in range(1500):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
        seen.add(key)
        total += Fraction(i % 7, i % 5 + 1)
    return total


def calibration_s(loops: int = 1) -> float:
    """Seconds the calibration loop takes now, the mean over `loops` runs."""
    start = perf_counter()
    for _ in range(loops):
        _loop()
    return (perf_counter() - start) / loops


def corrected(seconds: float, calibration: float) -> float:
    """Measured seconds scaled to the reference host speed."""
    return seconds * REFERENCE_S / calibration
