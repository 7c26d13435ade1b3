"""Drift reference: a fixed pure-Python loop timed next to every request.

On a shared machine the same call can run 1.7x slower a few minutes later.
Dividing each request's wall time by the wall time of this loop, run right
after it, cancels most of that drift.  Timings are reported as
``t_request * R0 / t_reference``, so they keep their units: R0 is the loop's
median time recorded once and never changed (see README.md).

The loop touches no library code, and runs with the garbage collector
paused so that its time does not depend on what the request allocated.
Its body mixes what the library spends its time on: small tuples, dict
lookups and stores, integer arithmetic and function calls.  Never edit it:
a different loop makes every normalised figure incomparable with the old
ones.
"""

from __future__ import annotations

import gc
import time

# Median seconds of ``reference_loop()`` recorded with Python 3.11.7 on a
# 2-vCPU x86-64 container (see README.md).  Fixed; do not re-record.
R0 = 0.0025

_ROUNDS = 9
_WIDTH = 24


def _step(table: dict, key: tuple, value: int) -> int:
    old = table.get(key, 0)
    table[key] = (old + value) % 1000003
    return old


def reference_loop() -> int:
    """Fixed work; returns a checksum so the work cannot be skipped."""
    checksum = 0
    for r in range(_ROUNDS):
        table: dict = {}
        for i in range(_WIDTH):
            for j in range(_WIDTH - i):
                key = (i, j, r)
                checksum += _step(table, key, i * j + r)
                checksum += sum(a * b for a, b in zip(key, (j, i, 1))) % 7
        checksum %= 1000003
    return checksum


SHARE = 0.1  # reference time spent per second of request time
MAX_LOOPS = 40


def time_reference(t_request: float = 0.0) -> float:
    """Mean seconds per reference loop, timed now with the GC paused.

    The loop runs for about ``SHARE`` of ``t_request``: contention on a
    shared machine comes in bursts, and a single 2.5 ms loop after a 150 ms
    request catches a burst whole or misses it, so it would over- or
    under-correct.  Averaging over a span that grows with the request
    follows the machine's speed during the request more closely.
    """
    loops = max(1, min(MAX_LOOPS, round(SHARE * t_request / R0)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(loops):
            reference_loop()
        return (time.perf_counter() - start) / loops
    finally:
        if enabled:
            gc.enable()
