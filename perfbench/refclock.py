"""Reference loop: a fixed piece of work timed next to the program's work.

The benchmark's machine is shared, and the speed of a core changes by up to
60% over seconds as other tenants come and go. Timing this loop right
before and right after each command (and each set-up repeat) tells how fast
the machine ran around it, and ``nominal`` rescales the measured time to a
machine on which the loop takes ``NOMINAL_S``. The loop is the benchmark's
own code, so a change to the program does not move it; it runs with the
garbage collector paused and on its own small data, so the program's heap
does not move it either.
"""
from __future__ import annotations

import gc
import json
import time

import numpy as np

# Undisturbed duration of one reference loop (2-core Xeon VM, Python 3.11,
# numpy 2.4). Only the scale of reported times depends on it.
NOMINAL_S = 0.0025
REPEATS = 3

_ROWS = [(i * 3.0 % 97, i * 7.0 % 89, i * 3.0 % 97 + 20.0, i * 7.0 % 89 + 15.0) for i in range(200)]
_ARRAY = np.asarray(_ROWS)


def reference_loop() -> float:
    """Python arithmetic over tuples, dicts, JSON and numpy comparisons, the
    kinds of work the program does; returns a checksum."""
    acc = 0.0
    index = {}
    for a in _ROWS[:10]:
        for b in _ROWS:
            ix = min(a[2], b[2]) - max(a[0], b[0])
            iy = min(a[3], b[3]) - max(a[1], b[1])
            if ix > 0 and iy > 0:
                acc += ix * iy
                index[b] = acc
    acc += len(json.loads(json.dumps([list(r) for r in _ROWS])))
    arr = _ARRAY
    acc += float(((arr[:, None, 0] <= arr[None, :, 0]) & (arr[:, None, 2] >= arr[None, :, 2])).sum())
    return acc + len(index)


def sample() -> float:
    """Fastest of a few timings of the reference loop, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def nominal(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between reference samples ``before`` and
    ``after``, rescaled to the nominal machine speed."""
    return seconds * NOMINAL_S * 2.0 / (before + after)
