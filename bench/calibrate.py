"""Host-speed calibration for the evidim benchmark.

The benchmark runs on shared hosts whose single-thread speed swings by up to
1.7x, in states that last from under a second to tens of seconds, as other
tenants load the same cores.  A run of under a minute sees too few of those
states to average them out, so raw times from runs minutes apart disagree by
more than any useful bound.

To take the host's speed out of the figures, the timed loop runs slices of a
fixed calibration kernel before and after each stretch of ops and divides
each op's time by the host's slowness that the slices measured around it.
The kernel is stdlib code that shares nothing with evidim: big-integer
binomial sums.  Its time depends only on the host, never on the program, so
a change to evidim moves a normalized figure as much as it would move the
raw one on a steady host.

Three kernels were tried on the reference host: an interpreted loop of dict
lookups and float arithmetic, a JSON parse with frozensets and grouping, and
big-integer binomials.  The first two slow down under contention by about
1.6-1.8x where evidim's ops slow by about 1.4-1.5x, so dividing by them
overcorrects.  The binomials slow by about as much as the ops do.

The collector is off during a slice, so that its time cannot depend on what
the program keeps alive; the kernel's integers are not tracked by it anyway.
"""
from __future__ import annotations

import gc
import math
from time import perf_counter

# A round figure near the median slice time on the reference host (2-vCPU
# Intel Xeon VM, CPython 3.11.7).  Normalized figures read as if the host ran
# the kernel at this speed; the constant only scales them.
REFERENCE_S = 0.008


def _binomials() -> int:
    total = 0
    for n in range(200, 260):
        for k in range(0, n, 5):
            total += math.comb(n, k) * ((1 << k) - 1)
    return total


def slice_seconds() -> float:
    """Seconds one slice of the kernel takes on this host, now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        check = _binomials()
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if check <= 0:
        raise ArithmeticError("calibration kernel gave a non-positive check value")
    return elapsed
