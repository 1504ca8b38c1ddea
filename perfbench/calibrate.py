"""Reference time: wall time scaled by a fixed calibration loop.

The host's speed drifts in phases lasting seconds, so a raw wall time
mixes the program's cost with the host's current speed.  The benchmark
times a fixed pure-Python loop right before and after each measured
interval and reports the interval in *reference* time::

    ref = wall * NOMINAL_MS / mean(calibration before, calibration after)

i.e. in units of "what the interval would have taken on a host where the
loop takes exactly ``NOMINAL_MS``".  The loop does integer arithmetic and
allocates short-lived ``bytes``; neither is GC-tracked, and the loop runs
with the collector paused, so the program's objects cannot start a
collection inside it.  The allocations make the loop slow down with the
host's memory system as the program does.  On a 2-vCPU VM whose speed
swings by a third, ``cold_check`` steps slowed about 1.4 times as steeply
(log-log) as a loop of integer arithmetic alone, and its ``op_ms_p50``
spread (Q3 - Q1) / median 0.12-0.15 over ten seeds; with the allocation
in the loop, 0.02.
"""

from __future__ import annotations

import gc
import time

#: Iterations of the calibration loop.
ITERATIONS = 2_000
#: The loop's nominal wall time in ms: the unit of reference time.
NOMINAL_MS = 1.0


#: Sizes of the short-lived ``bytes`` the loop allocates, 16 B to 1.5 KB.
_SIZES = tuple((i * 37) % 1500 + 16 for i in range(64))


def _spin(n: int) -> int:
    x = 0
    while n:
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        bytes(_SIZES[x & 63])
        n -= 1
    return x


def calibrate() -> float:
    """Wall ms of one calibration loop, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _spin(ITERATIONS)
        return (time.perf_counter_ns() - start) / 1e6
    finally:
        if enabled:
            gc.enable()


def factor(before_ms: float, after_ms: float) -> float:
    """Wall → reference multiplier for an interval between two calibrations."""
    return NOMINAL_MS * 2.0 / (before_ms + after_ms)
