"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the speed of a Python thread
drifts by 30% or more over a few seconds, and a run's median latency
follows the drift.  The benchmark therefore times a fixed loop of
integer arithmetic right before and right after each operation and
reports every latency at reference speed:

    reported = measured * REFERENCE_SECONDS / calibration

where calibration is the mean of the two loop timings around the
operation, and REFERENCE_SECONDS is what the loop takes on the reference
machine (defined as 1 ms).  A change to the program moves `measured`
and leaves the loop alone.  The loop allocates no container objects, so
it triggers no garbage collection of the program's objects.  It imports
only the builtin `math`, so it can run before `import fano64` when
setup time is measured.

Of the loops tried (plain integer arithmetic, Fraction sums, and this
one), this one followed the program's speed best: over 15-second
windows of fixed large-fan operations it cut the spread of the mean
latency from 9% to 2%.
"""

import time
from math import gcd

SPIN = 3_000
REFERENCE_SECONDS = 0.001


def spin_seconds() -> float:
    """Time of a loop of integer products, gcd and division, like the program's exact kernels."""
    start = time.perf_counter()
    acc = 0
    for i in range(1, SPIN):
        a, b = i * 7919, i + 3
        g = gcd(a, b)
        acc += a // g - b // g
    return time.perf_counter() - start


def calibrate(repeats: int = 3) -> float:
    """Median time of `repeats` runs of the loop, in seconds."""
    return sorted(spin_seconds() for _ in range(repeats))[repeats // 2]
