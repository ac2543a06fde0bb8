"""A fixed reference computation that measures the machine's current speed.

On a shared VM the speed of one core drifts between levels about 1.5x
apart, for seconds to minutes at a time; CPU time follows the level just
as wall time does, so neither can tell a slower program from a slower
machine.  The probe is a fixed piece of interpreter work that does not
touch the program under test, so its wall time follows only the machine.
It runs right before and right after every timed region, and the
region's wall time is rescaled by ``REFERENCE_S / probe seconds``: the
result reads as the seconds the region would take on a machine that runs
the probe in ``REFERENCE_S``.  A change to the program moves the query
and not the probe, so it shows in full.

The probe walks some 12 MB of point tuples allocated in shuffled order,
so it misses the CPU caches much as the joins' object graphs do, and
runs a ray-casting point-in-polygon loop.  The garbage collector is off
while it runs, so the size of the program's heap does not leak into the
reading.
"""

from __future__ import annotations

import gc
import math
import random
import time

# A round figure near what one probe takes on a 2-core x86-64 VM
# (Python 3.11); rescaled figures are seconds at that speed.
REFERENCE_S = 0.1

_rng = random.Random(0)
_POINTS = [(_rng.random() * 1000.0, _rng.random() * 1000.0) for _ in range(120_000)]
_rng.shuffle(_POINTS)
_POLYGON = [
    (500.0 + 300.0 * math.cos(t), 500.0 + 300.0 * math.sin(t))
    for t in (2.0 * math.pi * i / 24 for i in range(24))
]
_PIP_POINTS = _POINTS[:1500]


def _inside(x: float, y: float) -> bool:
    inside = False
    xj, yj = _POLYGON[-1]
    for xi, yi in _POLYGON:
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        xj, yj = xi, yi
    return inside


def _work() -> int:
    buckets: dict[int, int] = {}
    hits = 0
    for x, y in _POINTS:
        key = int(x) >> 5
        buckets[key] = buckets.get(key, 0) + 1
        if 200.0 < x < 800.0 and 200.0 < y < 800.0:
            hits += 1
    for x, y in _PIP_POINTS:
        hits += _inside(x, y)
    return hits + len(buckets)


def probe() -> float:
    """Wall seconds of one reference computation, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
